// Checking by first match, class by class. Each ID field splits into the
// IDs some rule names and one class for every other ID, and no rule tells
// the packets of one class apart but by protocol and port. So two lists
// allow the same packets when they agree on every class: on each
// (VRF, src, dst) triple an exact rule names, which its exact rules reach
// and every rule whose wildcards cover it, and on the few classes that
// only rules with a wildcard VRF, source or destination reach. Inside a
// class each protocol's ports are swept in list order, the first rule to
// reach a port deciding it, and an allow rule meets the packets its list
// allows and the other does not exactly when it meets them in some class
// it reaches. An ID is only ever compared, so any ID checks.

package equiv

import (
	"fmt"
	"slices"
	"sort"

	"scout/internal/object"
	"scout/internal/rule"
)

// Check is one switch's verdict: whether logical (its compiled rules) and
// deployed (its collected TCAM rules), each in match order, allow the same
// packets, and the allow rules whose match meets the packets one allows
// and the other does not — Checker.Check's report, whose encoding takes
// IDs of 16 bits where Check takes any. A rule with an inverted port range
// fails its list. Check keeps nothing, so switches check concurrently.
func Check(logical, deployed []rule.Rule) (*Report, error) {
	l, err := newSide(logical)
	if err != nil {
		return nil, fmt.Errorf("encode logical rules: %w", err)
	}
	d, err := newSide(deployed)
	if err != nil {
		return nil, fmt.Errorf("encode deployed rules: %w", err)
	}
	w := walk{sides: [2]*side{&l, &d}}
	w.triples()
	w.others()
	missing, extra := l.hits(), d.hits()
	slices.SortFunc(extra, rule.Compare)
	return &Report{Equivalent: missing == nil && extra == nil, MissingRules: missing, ExtraRules: extra}, nil
}

// side is one list as the walk reads it: its exact rules, whose VRF,
// source and destination are all exact, by match, and its wide rules, the
// rest, in list order.
type side struct {
	rules []rule.Rule
	// exact and wide hold positions in rules. exact is nil when the exact
	// rules lead the list ascending by match (rule.CompareMatch), as every
	// compiled list and every TCAM list installed in one pass do, and is
	// rule.TripleIndex otherwise; wide is nil when the wide rules are the
	// list's tail.
	exact, wide []int
	n           int // the number of exact rules
	// allowsLead: no allow rule follows a rule that is not an allow, so
	// on every class the list allows the union of its allow rules.
	allowsLead bool
	// hit marks the allow rules found to meet the difference, by
	// position; nil until the first.
	hit []bool
}

// newSide indexes rules, or returns the error of the first rule with an
// inverted port range.
func newSide(rules []rule.Rule) (side, error) {
	s := side{rules: rules, allowsLead: true}
	lead, sorted, other := true, true, false
	for i := range rules {
		r := &rules[i]
		if err := checkPorts(r.Match); err != nil {
			return s, err
		}
		if r.Action != rule.Allow {
			other = true
		} else if other {
			s.allowsLead = false
		}
		if isWide(&r.Match) {
			continue
		}
		if s.n != i {
			lead = false
		} else if i > 0 && rule.CompareMatch(&rules[i-1].Match, &r.Match) > 0 {
			sorted = false
		}
		s.n++
	}
	if !lead || !sorted {
		s.exact = rule.TripleIndex(rules)
	}
	if !lead {
		for i := range rules {
			if isWide(&rules[i].Match) {
				s.wide = append(s.wide, i)
			}
		}
	}
	return s, nil
}

func isWide(m *rule.Match) bool { return m.WildcardVRF || m.WildcardSrc || m.WildcardDst }

// exactAt is the position of the k-th exact rule by match.
func (s *side) exactAt(k int) int {
	if s.exact == nil {
		return k
	}
	return s.exact[k]
}

// wideAt is the position of the k-th wide rule.
func (s *side) wideAt(k int) int {
	if s.wide == nil {
		return s.n + k
	}
	return s.wide[k]
}

func (s *side) numWide() int { return len(s.rules) - s.n }

// run returns the end of the run of exact rules on triple t from k.
func (s *side) run(k int, t *rule.Match) int {
	for k < s.n && rule.CompareTriple(&s.rules[s.exactAt(k)].Match, t) == 0 {
		k++
	}
	return k
}

// names reports whether an exact rule names triple t.
func (s *side) names(t *rule.Match) bool {
	k := sort.Search(s.n, func(k int) bool { return rule.CompareTriple(&s.rules[s.exactAt(k)].Match, t) >= 0 })
	return k < s.n && rule.CompareTriple(&s.rules[s.exactAt(k)].Match, t) == 0
}

// nextWide returns the first k' ≥ k whose wide rule reaches triple t
// (every wide rule when t is nil), or numWide.
func (s *side) nextWide(k int, t *rule.Match) int {
	for ; k < s.numWide() && t != nil; k++ {
		m := &s.rules[s.wideAt(k)].Match
		if (m.WildcardVRF || m.VRF == t.VRF) && (m.WildcardSrc || m.SrcEPG == t.SrcEPG) && (m.WildcardDst || m.DstEPG == t.DstEPG) {
			break
		}
	}
	return k
}

func (s *side) mark(p int) {
	if s.hit == nil {
		s.hit = make([]bool, len(s.rules))
	}
	s.hit[p] = true
}

// hits returns the marked rules in list order, or nil.
func (s *side) hits() []rule.Rule {
	n := 0
	for _, h := range s.hit {
		if h {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]rule.Rule, 0, n)
	for p, h := range s.hit {
		if h {
			out = append(out, s.rules[p])
		}
	}
	return out
}

// sameRule reports whether two rules match and act alike.
func sameRule(x, y *rule.Rule) bool { return x.Match == y.Match && x.Action == y.Action }

// walk compares the two sides, logical then deployed, class by class,
// marking on each the allow rules that meet the packets it allows and the
// other does not.
type walk struct {
	sides [2]*side
	// Scratch of the class sweep, reused across classes.
	pos    [2][]int
	rules  []compiledRule
	protos []uint32
	list   []int32
	ports  portSweep
	spans  [2][]span
}

// scratch sizes the walk's scratch for a few dozen rules, once: a check
// that sweeps a class sweeps it in a handful of allocations.
func (w *walk) scratch() {
	if w.rules != nil {
		return
	}
	const n = 32
	w.pos = [2][]int{make([]int, 0, n), make([]int, 0, n)}
	w.rules, w.protos, w.list = make([]compiledRule, 0, n), make([]uint32, 0, n), make([]int32, 0, n)
	w.ports = portSweep{points: make([]uint32, 0, 2*n), next: make([]int32, 0, 2*n), painted: make([]bool, 0, 2*n)}
	w.spans = [2][]span{make([]span, 0, n), make([]span, 0, n)}
}

// triples walks the triples the exact rules of either side name, both
// sides' exact rules in step. A triple whose rules are the same on both
// sides — the exact ones in match order, so in whatever install order, and
// the wide ones that reach it in list order — is decided at once when on
// each side every allow leads, so that each allows the union of its allow
// rules: a switch whose TCAM holds what it should. Every other triple is
// swept.
func (w *walk) triples() {
	l, d := w.sides[0], w.sides[1]
	for i, j := 0, 0; i < l.n || j < d.n; {
		var t *rule.Match
		switch {
		case j == d.n:
			t = &l.rules[l.exactAt(i)].Match
		case i == l.n:
			t = &d.rules[d.exactAt(j)].Match
		default:
			t = &l.rules[l.exactAt(i)].Match
			if u := &d.rules[d.exactAt(j)].Match; rule.CompareTriple(u, t) < 0 {
				t = u
			}
		}
		ie, je := l.run(i, t), d.run(j, t)
		if !l.allowsLead || !d.allowsLead || !w.same(t, i, ie, j, je) {
			w.sweep(w.class(0, t, i, ie), w.class(1, t, j, je))
		}
		i, j = ie, je
	}
}

// same reports whether triple t's exact rules, runs [i, ie) and [j, je),
// and the wide rules that reach it are the same on both sides.
func (w *walk) same(t *rule.Match, i, ie, j, je int) bool {
	l, d := w.sides[0], w.sides[1]
	if ie-i != je-j {
		return false
	}
	for k := 0; k < ie-i; k++ {
		if !sameRule(&l.rules[l.exactAt(i+k)], &d.rules[d.exactAt(j+k)]) {
			return false
		}
	}
	return w.sameWide(t)
}

// sameWide reports whether the wide rules that reach triple t, or all of
// them when t is nil, are the same on both sides in list order.
func (w *walk) sameWide(t *rule.Match) bool {
	l, d := w.sides[0], w.sides[1]
	a, b := l.nextWide(0, t), d.nextWide(0, t)
	for ; a < l.numWide() && b < d.numWide(); a, b = l.nextWide(a+1, t), d.nextWide(b+1, t) {
		if !sameRule(&l.rules[l.wideAt(a)], &d.rules[d.wideAt(b)]) {
			return false
		}
	}
	return a == l.numWide() && b == d.numWide()
}

// class returns the positions, ascending, of the rules of side k that
// reach triple t: its exact rules [i, ie) and the wide rules that cover t.
func (w *walk) class(k int, t *rule.Match, i, ie int) []int {
	w.scratch()
	s, pos := w.sides[k], w.pos[k][:0]
	for ; i < ie; i++ {
		pos = append(pos, s.exactAt(i))
	}
	for a := s.nextWide(0, t); a < s.numWide(); a = s.nextWide(a+1, t) {
		pos = append(pos, s.wideAt(a))
	}
	slices.Sort(pos)
	w.pos[k] = pos
	return pos
}

// others walks the classes that only wide rules reach (split). When the
// two sides' wide rules are the same, every such class sees the same rules
// on both.
func (w *walk) others() {
	if w.sameWide(nil) {
		return
	}
	positions := func(s *side) []int {
		pos := make([]int, s.numWide())
		for k := range pos {
			pos[k] = s.wideAt(k)
		}
		return pos
	}
	w.split(positions(w.sides[0]), positions(w.sides[1]), 0, [3]object.ID{}, 0)
}

// split decides the classes that wide rules l and d (positions, ascending)
// reach from field f on, fields 0 (VRF), 1 (source) and 2 (destination),
// the first f of which the class fixes: named of them to ids, the rest to
// IDs no rule here names. Field f splits, as compile.go's split does, into
// each ID a rule here names, reached by the rules naming it and the
// wildcards, and every other ID, reached by the wildcards. A class that
// fixes all three fields to a triple an exact rule names was decided with
// that triple, and parts with the same rules on both sides agree.
func (w *walk) split(l, d []int, f int, ids [3]object.ID, named int) {
	if slices.EqualFunc(l, d, func(p, q int) bool { return sameRule(&w.sides[0].rules[p], &w.sides[1].rules[q]) }) {
		return
	}
	if f == len(ids) {
		t := rule.Match{VRF: ids[0], SrcEPG: ids[1], DstEPG: ids[2]}
		if named < len(ids) || !w.sides[0].names(&t) && !w.sides[1].names(&t) {
			w.sweep(l, d)
		}
		return
	}
	var vals []object.ID
	for k, pos := range [2][]int{l, d} {
		for _, p := range pos {
			if id, wild := fieldOf(&w.sides[k].rules[p].Match, f); !wild {
				vals = append(vals, id)
			}
		}
	}
	slices.Sort(vals)
	// reaching returns the rules of pos on side k whose field f is a
	// wildcard or, when named, id.
	reaching := func(k int, pos []int, id object.ID, named bool) []int {
		var out []int
		for _, p := range pos {
			if v, wild := fieldOf(&w.sides[k].rules[p].Match, f); wild || named && v == id {
				out = append(out, p)
			}
		}
		return out
	}
	for _, id := range slices.Compact(vals) {
		ids[f] = id
		w.split(reaching(0, l, id, true), reaching(1, d, id, true), f+1, ids, named+1)
	}
	ids[f] = 0
	w.split(reaching(0, l, 0, false), reaching(1, d, 0, false), f+1, ids, named)
}

// fieldOf returns m's field f, 0 (VRF), 1 (source) or 2 (destination),
// and whether it is a wildcard.
func fieldOf(m *rule.Match, f int) (object.ID, bool) {
	switch f {
	case 0:
		return m.VRF, m.WildcardVRF
	case 1:
		return m.SrcEPG, m.WildcardSrc
	}
	return m.DstEPG, m.WildcardDst
}

// otherProto stands for every protocol no rule names: only ProtoAny rules
// reach it.
const otherProto = 1 << protoBits

// sweep decides one class from the rules of each side that reach it,
// positions ascending. Its protocols are those its rules name and one
// class for every other; on each, each side allows the ports the first
// rule to reach them allows, and an allow rule reaching the protocol whose
// ports meet those its side allows and the other does not is marked.
func (w *walk) sweep(l, d []int) {
	w.scratch()
	w.rules, w.protos = w.rules[:0], w.protos[:0]
	sides := [2][]int{l, d}
	for k, pos := range sides {
		for _, p := range pos {
			r := reduceRule(w.sides[k].rules[p])
			if !r.wild[tailField] {
				w.protos = append(w.protos, r.val[tailField])
			}
			w.rules = append(w.rules, r)
		}
	}
	slices.Sort(w.protos)
	w.protos = append(slices.Compact(w.protos), otherProto)
	reaches := func(r *compiledRule, proto uint32) bool { return r.wild[tailField] || r.val[tailField] == proto }
	for _, proto := range w.protos {
		for k, rules := range [2][]compiledRule{w.rules[:len(l)], w.rules[len(l):]} {
			w.list = w.list[:0]
			for i := range rules {
				if reaches(&rules[i], proto) {
					w.list = append(w.list, int32(i))
				}
			}
			w.spans[k] = w.ports.allowed(w.spans[k][:0], rules, w.list)
		}
		for k, rules := range [2][]compiledRule{w.rules[:len(l)], w.rules[len(l):]} {
			for i := range rules {
				if r := &rules[i]; r.allow && reaches(r, proto) && meets(w.spans[k], w.spans[1-k], r.lo, r.end) {
					w.sides[k].mark(sides[k][i])
				}
			}
		}
	}
}

// meets reports whether a port of [lo, end) lies in a and not in b, both
// ascending disjoint spans, b's joined where they touch.
func meets(a, b []span, lo, end uint32) bool {
	after := func(set []span, at uint32) int {
		return sort.Search(len(set), func(k int) bool { return set[k].end > at })
	}
	for k := after(a, lo); k < len(a) && a[k].lo < end; k++ {
		from, to := max(lo, a[k].lo), min(end, a[k].end)
		if j := after(b, from); j == len(b) || b[j].lo > from || b[j].end < to {
			return true
		}
	}
	return false
}

// portSweep resolves first match on the port axis for rules that agree on
// every other field. Its slices are scratch, reused across calls.
type portSweep struct {
	points []uint32
	next   []int32
	// painted[j]: the first rule to reach segment [points[j], points[j+1])
	// allows it. Segments no rule reaches stay denied.
	painted []bool
}

// allowed appends to spans the ports that the first rule of list (indices
// into rules, in match order) to reach them allows, as ascending disjoint
// spans, adjacent ones joined.
func (p *portSweep) allowed(spans []span, rules []compiledRule, list []int32) []span {
	// Trailing denies allow nothing and shadow nothing that follows.
	for len(list) > 0 && !rules[list[len(list)-1]].allow {
		list = list[:len(list)-1]
	}
	switch len(list) {
	case 0:
		return spans
	case 1:
		r := &rules[list[0]]
		return append(spans, span{r.lo, r.end})
	}

	// Cut the axis at every range boundary, then paint the elementary
	// segments in priority order. next[j] is the first unpainted segment
	// at or after j (path-compressed), so each segment is painted once
	// and the sweep is O(k log k) for k rules, however they overlap.
	p.points = p.points[:0]
	for _, ri := range list {
		p.points = append(p.points, rules[ri].lo, rules[ri].end)
	}
	slices.Sort(p.points)
	p.points = slices.Compact(p.points)
	segs := len(p.points) - 1
	p.next = p.next[:0]
	for j := 0; j <= segs; j++ {
		p.next = append(p.next, int32(j))
	}
	p.painted = slices.Grow(p.painted[:0], segs)[:segs]
	clear(p.painted)
	for _, ri := range list {
		r := &rules[ri]
		s, _ := slices.BinarySearch(p.points, r.lo)
		e, _ := slices.BinarySearch(p.points, r.end)
		for j := p.unpainted(s); j < e; j = p.unpainted(j) {
			p.painted[j] = r.allow
			p.next[j] = int32(j + 1)
		}
	}
	for j, first := 0, len(spans); j < segs; j++ {
		if !p.painted[j] {
			continue
		}
		if n := len(spans); n > first && spans[n-1].end == p.points[j] {
			spans[n-1].end = p.points[j+1]
		} else {
			spans = append(spans, span{p.points[j], p.points[j+1]})
		}
	}
	return spans
}

// unpainted returns the first unpainted segment at or after j.
func (p *portSweep) unpainted(j int) int {
	root := j
	for int(p.next[root]) != root {
		root = int(p.next[root])
	}
	for j != root {
		up := int(p.next[j])
		p.next[j] = int32(root)
		j = up
	}
	return root
}
