// Direct ROBDD construction for rule lists. A prioritized list is
// compiled to the canonical diagram of the packets it allows without ever
// applying a boolean operator: the list is partitioned field by field in
// variable order, first-match is resolved on the port axis into a union of
// disjoint intervals, and each field is emitted bottom-up as a binary trie
// over the values the rules name. The only manager call is Mk, so the only
// nodes interned are nodes of the result — whatever the interleaving of
// allow and deny — and a node the manager (or the frozen base under a
// fork) already holds is found, not rebuilt: re-compiling a list that
// differs from a warmed one in k rules adds the O(k) root-to-leaf paths
// that changed and nothing else. The same field layout is read back by the
// attribution walk (meets.go).
//
// A list has far fewer distinct parts than rules: a few hundred proto/port
// tails under a thousand (VRF, src, dst) groups, and tries that whole
// switches share. A compileMemo maps the content of a tail or a trie to
// the node it compiled to, so each distinct one is built once per manager
// and a hit makes no manager call at all.
//
// Canonicity is what makes this interchangeable with a fold of And/Or/
// Not over per-rule encodings: both yield the one ROBDD of the function,
// and in one manager that is one node ID. The test oracle (oracle_test.go)
// keeps the fold and asserts exactly that. It is also why the memo is
// invisible: a hit returns the node the skipped Mk calls would have found.

package equiv

import (
	"fmt"
	"slices"

	"scout/internal/bdd"
	"scout/internal/rule"
)

// idField locates one exact-or-wildcard header field in the variable
// order (most-significant bit at the lowest variable).
type idField struct{ off, width int }

// idFields lists the exact-or-wildcard fields in variable order. The port
// range follows them and is handled on its own.
var idFields = [...]idField{
	{vrfOff, vrfBits},
	{srcOff, epgBits},
	{dstOff, epgBits},
	{protoOff, protoBits},
}

const numIDFields = len(idFields)

// tailField is the first field of a group's tail: what is left to decide
// once VRF, source and destination are fixed.
const tailField = numIDFields - 1

// tailTag opens a tail's memo key; a trie's opens with its field index.
const tailTag = byte(numIDFields)

// portSpace is one past the largest port: the exclusive end of the axis.
const portSpace = uint32(1) << portBits

// compiledRule is one rule reduced to what construction reads.
type compiledRule struct {
	val  [numIDFields]uint32
	wild [numIDFields]bool
	// lo and end bound the port range as [lo, end).
	lo, end uint32
	allow   bool
	// total is the first field from which the rule matches everything:
	// fields total.. are wildcards and the port range is full. A rule
	// shadows every later rule wherever fields total.. are all that is
	// left to decide. numIDFields+1 when the port range is partial.
	total int
}

// checkMatch rejects matches the encoding cannot represent. Wildcard
// fields are not read, so their IDs are not checked.
func checkMatch(m rule.Match) error {
	if !m.WildcardVRF && m.VRF > maxID {
		return fmt.Errorf("vrf id %d exceeds %d-bit encoding", m.VRF, vrfBits)
	}
	if !m.WildcardSrc && m.SrcEPG > maxID {
		return fmt.Errorf("src epg id %d exceeds %d-bit encoding", m.SrcEPG, epgBits)
	}
	if !m.WildcardDst && m.DstEPG > maxID {
		return fmt.Errorf("dst epg id %d exceeds %d-bit encoding", m.DstEPG, epgBits)
	}
	if m.PortLo > m.PortHi {
		return fmt.Errorf("inverted port range %d-%d", m.PortLo, m.PortHi)
	}
	return nil
}

func reduceRule(r rule.Rule) compiledRule {
	m := r.Match
	c := compiledRule{
		val:   [numIDFields]uint32{uint32(m.VRF), uint32(m.SrcEPG), uint32(m.DstEPG), uint32(m.Proto)},
		wild:  [numIDFields]bool{m.WildcardVRF, m.WildcardSrc, m.WildcardDst, m.Proto == rule.ProtoAny},
		lo:    uint32(m.PortLo),
		end:   uint32(m.PortHi) + 1,
		allow: r.Action == rule.Allow,
		total: numIDFields + 1,
	}
	if m.AnyPort() {
		c.total = numIDFields
		for c.total > 0 && c.wild[c.total-1] {
			c.total--
		}
	}
	return c
}

// compileMemo maps the content of a tail or of one field's trie to the
// node it compiled to in one manager (or in the frozen base under it). The
// keys are the content itself, byte for byte (built in tail and split), not
// a hash of it: equal keys are equal functions, so a hit needs no
// verification. The values are only as good as the manager's node IDs —
// whoever resets or compacts the manager drops the memo with it.
type compileMemo map[string]bdd.Node

// compileMemoized builds, in m, the BDD of the packets a prioritized rule
// list allows: the first matching rule decides. An unencodable rule fails
// the whole list with the error of the first such rule in list order.
// Either memo may be nil: frozen is only read (a Base's, shared by its
// forks), own is read and filled. Every node in them must be valid in m.
func compileMemoized(m Backend, rules []rule.Rule, frozen, own compileMemo) (bdd.Node, error) {
	c := compiler{m: m, rules: make([]compiledRule, len(rules)), frozen: frozen, own: own}
	list := make([]int32, len(rules))
	for i, r := range rules {
		if err := checkMatch(r.Match); err != nil {
			return bdd.False, err
		}
		c.rules[i] = reduceRule(r)
		list[i] = int32(i)
	}
	return c.field(list, 0), nil
}

// compiler carries one list's reduced rules through the field recursion.
// Sub-lists are slices of rule indices in ascending (priority) order.
type compiler struct {
	m     Backend
	rules []compiledRule
	// frozen and own are the memos (see compileMemoized); key is the stack
	// of memo keys under construction, innermost last.
	frozen, own compileMemo
	key         []byte
	// Port-axis scratch, reused across leaves.
	points []uint32
	next   []int32
	spans  []span
}

// field builds the BDD over fields f.. of the packets list allows, given
// that every earlier field already matched each rule in list.
func (c *compiler) field(list []int32, f int) bdd.Node {
	// A rule matching everything still undecided shadows the rest.
	for i, ri := range list {
		if c.rules[ri].total <= f {
			if i == 0 {
				return terminal(c.rules[ri].allow)
			}
			list = list[:i+1]
			break
		}
	}
	if len(list) == 0 {
		return bdd.False
	}
	if f == numIDFields {
		return c.ports(list)
	}
	if f == tailField {
		return c.tail(list)
	}
	return c.split(list, f)
}

// tail is field(list, tailField) through the memo: the tail's content is
// all that decides its BDD.
func (c *compiler) tail(list []int32) bdd.Node {
	start := len(c.key)
	c.key = append(c.key, tailTag)
	for _, ri := range list {
		r := &c.rules[ri]
		flags := byte(0)
		if r.wild[tailField] {
			flags |= 1
		}
		if r.allow {
			flags |= 2
		}
		hi := r.end - 1
		c.key = append(c.key, byte(r.val[tailField]), flags, byte(r.lo>>8), byte(r.lo), byte(hi>>8), byte(hi))
	}
	n, ok := c.lookup(start)
	if !ok {
		n = c.split(list, tailField)
		c.store(start, n)
	}
	c.key = c.key[:start]
	return n
}

// lookup finds the key c.key[start:] in the memos.
func (c *compiler) lookup(start int) (bdd.Node, bool) {
	if n, ok := c.frozen[string(c.key[start:])]; ok {
		return n, true
	}
	n, ok := c.own[string(c.key[start:])]
	return n, ok
}

// store records the key c.key[start:] in the compiler's own memo.
func (c *compiler) store(start int, n bdd.Node) {
	if c.own != nil {
		c.own[string(c.key[start:])] = n
	}
}

// split partitions list on field f and emits the field's trie over the
// BDDs of the parts. list is not empty and no rule in it is total at f.
func (c *compiler) split(list []int32, f int) bdd.Node {
	// Split into the rules naming a value for this field, keyed so that
	// sorting groups them by value in priority order, and the wildcards.
	keys := make([]uint64, 0, len(list))
	wild := make([]int32, 0, len(list))
	for _, ri := range list {
		if r := &c.rules[ri]; r.wild[f] {
			wild = append(wild, ri)
		} else {
			keys = append(keys, uint64(r.val[f])<<32|uint64(ri))
		}
	}
	def := c.field(wild, f+1)
	if len(keys) == 0 {
		return def
	}
	slices.Sort(keys)

	// One child per named value: its own rules merged with the wildcards
	// by priority. Every other value falls through to the wildcards alone.
	var vals []uint32
	var kids []bdd.Node
	sub := make([]int32, 0, len(list))
	for start := 0; start < len(keys); {
		val := uint32(keys[start] >> 32)
		end := start
		for end < len(keys) && uint32(keys[end]>>32) == val {
			end++
		}
		sub = sub[:0]
		w := 0
		for _, k := range keys[start:end] {
			ri := int32(uint32(k))
			for w < len(wild) && wild[w] < ri {
				sub = append(sub, wild[w])
				w++
			}
			sub = append(sub, ri)
		}
		sub = append(sub, wild[w:]...)
		vals = append(vals, val)
		kids = append(kids, c.field(sub, f+1))
		start = end
	}

	// The trie is decided by its field, where each named value leads and
	// where every other value does.
	at := len(c.key)
	c.key = append(c.key, byte(f), byte(def>>24), byte(def>>16), byte(def>>8), byte(def))
	for i, v := range vals {
		k := kids[i]
		c.key = append(c.key, byte(v>>8), byte(v), byte(k>>24), byte(k>>16), byte(k>>8), byte(k))
	}
	n, ok := c.lookup(at)
	if !ok {
		n = c.trie(idFields[f], 0, vals, kids, def)
		c.store(at, n)
	}
	c.key = c.key[:at]
	return n
}

// trie emits the bits [bit, width) of one field: vals (ascending, equal
// above bit) lead to their kids, every other value to def.
func (c *compiler) trie(fd idField, bit int, vals []uint32, kids []bdd.Node, def bdd.Node) bdd.Node {
	if len(vals) == 0 {
		return def
	}
	if bit == fd.width {
		return kids[0]
	}
	mask := uint32(1) << uint(fd.width-1-bit)
	ones := 0
	for ones < len(vals) && vals[ones]&mask == 0 {
		ones++
	}
	lo := c.trie(fd, bit+1, vals[:ones], kids[:ones], def)
	hi := c.trie(fd, bit+1, vals[ones:], kids[ones:], def)
	return c.m.Mk(fd.off+bit, lo, hi)
}

// ports resolves first-match over the port axis for rules that agree on
// every other field, and builds the BDD of the allowed ports.
func (c *compiler) ports(list []int32) bdd.Node {
	// Trailing denies allow nothing and shadow nothing that follows.
	for len(list) > 0 && !c.rules[list[len(list)-1]].allow {
		list = list[:len(list)-1]
	}
	switch len(list) {
	case 0:
		return bdd.False
	case 1:
		r := &c.rules[list[0]]
		c.spans = append(c.spans[:0], span{r.lo, r.end})
		return spansBDD(c.m, 0, 0, c.spans)
	}

	// Cut the axis at every range boundary, then paint the elementary
	// segments in priority order. next[j] is the first unpainted segment
	// at or after j (path-compressed), so each segment is painted once
	// and the sweep is O(k log k) for k rules, however they overlap.
	c.points = c.points[:0]
	for _, ri := range list {
		c.points = append(c.points, c.rules[ri].lo, c.rules[ri].end)
	}
	slices.Sort(c.points)
	c.points = slices.Compact(c.points)
	segs := len(c.points) - 1
	c.next = c.next[:0]
	for j := 0; j <= segs; j++ {
		c.next = append(c.next, int32(j))
	}
	// allowed[j]: the first rule to reach segment [points[j], points[j+1])
	// allows it. Segments no rule reaches stay denied.
	allowed := make([]bool, segs)
	for _, ri := range list {
		r := &c.rules[ri]
		s, _ := slices.BinarySearch(c.points, r.lo)
		e, _ := slices.BinarySearch(c.points, r.end)
		for j := c.unpainted(s); j < e; j = c.unpainted(j) {
			allowed[j] = r.allow
			c.next[j] = int32(j + 1)
		}
	}
	c.spans = c.spans[:0]
	for j := 0; j < segs; j++ {
		if !allowed[j] {
			continue
		}
		if n := len(c.spans); n > 0 && c.spans[n-1].end == c.points[j] {
			c.spans[n-1].end = c.points[j+1]
		} else {
			c.spans = append(c.spans, span{c.points[j], c.points[j+1]})
		}
	}
	return spansBDD(c.m, 0, 0, c.spans)
}

// unpainted returns the first unpainted segment at or after j.
func (c *compiler) unpainted(j int) int {
	root := j
	for int(c.next[root]) != root {
		root = int(c.next[root])
	}
	for j != root {
		up := int(c.next[j])
		c.next[j] = int32(root)
		j = up
	}
	return root
}

// span is the port interval [lo, end).
type span struct{ lo, end uint32 }

// spansBDD builds the BDD of a union of ascending, disjoint port spans
// restricted to the subtree below bit whose ports start at base. Every
// span passed in overlaps that subtree.
func spansBDD(m Backend, bit int, base uint32, spans []span) bdd.Node {
	if len(spans) == 0 {
		return bdd.False
	}
	size := portSpace >> uint(bit)
	if spans[0].lo <= base && spans[0].end >= base+size {
		return bdd.True
	}
	mid := base + size/2
	left := len(spans)
	for left > 0 && spans[left-1].lo >= mid {
		left--
	}
	right := 0
	for right < len(spans) && spans[right].end <= mid {
		right++
	}
	lo := spansBDD(m, bit+1, base, spans[:left])
	hi := spansBDD(m, bit+1, mid, spans[right:])
	return m.Mk(portOff+bit, lo, hi)
}

func terminal(allow bool) bdd.Node {
	if allow {
		return bdd.True
	}
	return bdd.False
}
