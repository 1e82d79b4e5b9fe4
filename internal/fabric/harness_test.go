package fabric

// The package's case runner: twin fabrics over one policy and seed, f
// deploying with Deploy and ref with refDeploy, take the same steps — a
// test's script, or a stream generated from an oracle.Choices of edits,
// disconnects and reconnects, crashes and restarts, object faults,
// corruption, eviction, deploys and rules planted through Switch.TCAM.
// After every step check holds the twins to each other in everything a
// step can touch, and f to the event contract: the step's TCAM-change
// events name exactly the switches whose snapshot it replaced, and its
// link events those whose control channel went down or up, once each,
// every event numbered past the step's first.

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"scout/internal/compile"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
)

// refDeploy is Deploy as it stood before the TCAM took whole batches and
// the agent walked its view: the same compile, then per switch a want map,
// a stale pass over a map of the view, the adds re-sorted, and one Install
// (and, refused, one overflow fault) per rule; a push that installed
// nothing emits no event.
func refDeploy(f *Fabric) error {
	d, err := compile.Compile(f.pol, f.topology)
	if err != nil {
		return err
	}
	f.deployed = d
	for _, sw := range f.topology.Switches() {
		s, desired := f.switches[sw], d.BySwitch[sw]
		if !s.reachable {
			continue
		}
		have := make(map[rule.Key]rule.Rule, len(s.view))
		for _, r := range s.view {
			have[r.Key()] = r
		}
		want := rule.KeySet(desired)
		var stale []rule.Key
		for k, r := range have {
			if _, ok := want[k]; !ok {
				stale = append(stale, k)
				if !s.agentUp {
					s.withdrawn = append(s.withdrawn, r)
				}
			}
		}
		changed := s.agentUp && s.tcam.RemoveKeys(stale) > 0
		var adds []rule.Rule
		for _, r := range desired {
			if _, ok := have[r.Key()]; !ok {
				adds = append(adds, r)
			}
		}
		slices.SortFunc(adds, rule.Compare)
		s.view = desired
		for _, r := range adds {
			if !s.agentUp {
				s.pending = append(s.pending, r)
				continue
			}
			n := s.tcam.Len()
			if errors.Is(s.tcam.Install(r), tcam.ErrFull) {
				f.faults.Raise(f.now, faultlog.FaultTCAMOverflow, s.ID,
					fmt.Sprintf("tcam at %d/%d entries", s.tcam.Len(), s.tcam.Capacity()))
			}
			changed = changed || s.tcam.Len() > n
		}
		if changed {
			f.emit(faultlog.EventTCAMChange, s.ID, "policy push")
		}
	}
	return nil
}

// twins is one run: f and ref took the same steps.
type twins struct {
	t      *testing.T
	f, ref *Fabric
	// changed is the switches whose snapshot the last step replaced.
	changed []object.ID
}

func newTwins(t *testing.T, p *policy.Policy, tp *topo.Topology, opts Options) *twins {
	t.Helper()
	f, err := New(p, tp, opts)
	ref, refErr := New(p, tp, opts)
	if err := errors.Join(err, refErr); err != nil {
		t.Fatal(err)
	}
	return &twins{t: t, f: f, ref: ref}
}

// do takes a step on both twins, checks it, and returns f's result. A nil
// op deploys.
func (h *twins) do(label string, op func(*Fabric) (any, error)) (any, error) {
	t, f := h.t, h.f
	t.Helper()
	before, reachable := f.CollectAll(), make(map[object.ID]bool)
	for sw, s := range f.switches {
		reachable[sw] = s.reachable
	}
	seq, pol, at := f.events.LastSeq(), f.pol.Clone(), f.Now()
	var got, want any
	var err, refErr error
	if op == nil {
		err, refErr = f.Deploy(), refDeploy(h.ref)
	} else {
		got, err = op(f)
		want, refErr = op(h.ref)
	}
	if fmt.Sprint(err) != fmt.Sprint(refErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: returned %v, %v on one twin and %v, %v on the other", label, got, err, want, refErr)
	}
	if err != nil && (!reflect.DeepEqual(f.pol.Clone(), pol) || !f.Now().Equal(at)) {
		t.Fatalf("%s was refused (%v) but changed the policy or logged a change", label, err)
	}
	h.check(label)
	h.changed = h.changed[:0]
	named, links := make(map[object.ID]int), make(map[object.ID]int)
	for _, ev := range f.events.Since(seq) {
		if ev.Seq <= seq {
			t.Fatalf("%s: event %+v has no sequence number past %d", label, ev, seq)
		}
		switch ev.Kind {
		case faultlog.EventTCAMChange:
			named[ev.Switch]++
		case faultlog.EventLink:
			links[ev.Switch]++
		}
	}
	for _, sw := range f.topology.Switches() {
		replaced := !rule.SameSlice(before[sw], f.switches[sw].tcam.Rules())
		if replaced {
			h.changed = append(h.changed, sw)
		}
		if replaced && named[sw] != 1 || !replaced && named[sw] != 0 {
			t.Fatalf("%s: switch %d: %d TCAM-change events, and its snapshot replaced: %v", label, sw, named[sw], replaced)
		}
		if flipped := reachable[sw] != f.switches[sw].reachable; flipped && links[sw] != 1 || !flipped && links[sw] != 0 {
			t.Fatalf("%s: switch %d: %d link events, and its control channel changed: %v", label, sw, links[sw], flipped)
		}
	}
	return got, err
}

// must takes a step that must succeed.
func (h *twins) must(label string, op func(*Fabric) error) {
	h.t.Helper()
	if _, err := h.do(label, func(f *Fabric) (any, error) { return nil, op(f) }); err != nil {
		h.t.Fatalf("%s: %v", label, err)
	}
}

func (h *twins) deploy() {
	h.t.Helper()
	if _, err := h.do("deploy", nil); err != nil {
		h.t.Fatal(err)
	}
}

// plant installs on both twins, through Switch.TCAM, the rules of sw's
// deployment its agent view lacks — a write the fabric does not see, so
// it emits no event.
func (h *twins) plant(sw object.ID) {
	h.t.Helper()
	for _, f := range []*Fabric{h.f, h.ref} {
		if f.deployed != nil {
			view := rule.KeySet(f.switches[sw].view)
			var missing []rule.Rule
			for _, r := range f.deployed.BySwitch[sw] {
				if _, ok := view[r.Key()]; !ok {
					missing = append(missing, r)
				}
			}
			f.switches[sw].TCAM().InstallAll(missing)
		}
	}
	h.check(fmt.Sprintf("plant on switch %d", sw))
}

// check compares everything a step can touch: each switch's TCAM, agent
// view and queues, and the fault, event and change logs.
func (h *twins) check(label string) {
	t, got, want := h.t, h.f, h.ref
	t.Helper()
	for _, sw := range got.topology.Switches() {
		g, w := got.switches[sw], want.switches[sw]
		// The reference finds stale rules by ranging over a map of the
		// view, so its withdrawals queue in map order: the same keys as
		// the walk's, not the same sequence.
		if !rule.SlicesEqual(g.tcam.Rules(), w.tcam.Rules()) || g.reachable != w.reachable || g.agentUp != w.agentUp ||
			!reflect.DeepEqual(g.view, w.view) || !reflect.DeepEqual(g.pending, w.pending) ||
			!reflect.DeepEqual(keyCounts(g.withdrawn), keyCounts(w.withdrawn)) {
			t.Fatalf("%s: switch %d: TCAM, health, agent view or queues differ from the oracle's", label, sw)
		}
	}
	if !reflect.DeepEqual(got.faults, want.faults) || !reflect.DeepEqual(got.events.Since(0), want.events.Since(0)) ||
		!reflect.DeepEqual(got.changes, want.changes) {
		t.Fatalf("%s: a log differs from the oracle's", label)
	}
}

func keyCounts(rules []rule.Rule) map[rule.Key]int {
	set := make(map[rule.Key]int, len(rules))
	for _, r := range rules {
		set[r.Key()]++
	}
	return set
}

func ids[V any](m map[object.ID]V) []object.ID {
	out := make([]object.ID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// stream takes n steps drawn from c.
func (h *twins) stream(c *oracle.Choices, n int) {
	h.t.Helper()
	pick := func(from []object.ID) object.ID { return from[c.Intn(len(from))] }
	for i := 0; i < n; i++ {
		pol, sw := h.f.pol, pick(h.f.topology.Switches())
		var label string
		var op func(*Fabric) (any, error)
		switch c.Intn(10) {
		case 0:
			con, flt := pick(ids(pol.Contracts)), pick(ids(pol.Filters))
			label, op = fmt.Sprintf("attach or detach filter %d in contract %d", flt, con), func(f *Fabric) (any, error) {
				if slices.Contains(f.pol.Contracts[con].Filters, flt) {
					return nil, f.RemoveFilterFromContract(con, flt)
				}
				return nil, f.AddFilterToContract(con, flt)
			}
		case 1:
			flt := policy.Filter{ID: slices.Max(ids(pol.Filters)) + 1,
				Entries: []policy.FilterEntry{policy.PortEntry(rule.ProtoTCP, uint16(8000+c.Intn(4)))}}
			label, op = fmt.Sprintf("add filter %d", flt.ID), func(f *Fabric) (any, error) { return nil, f.AddFilter(flt) }
		case 2:
			a, b, con := pick(ids(pol.EPGs)), pick(ids(pol.EPGs)), pick(ids(pol.Contracts))
			label, op = fmt.Sprintf("bind contract %d to epgs %d-%d", con, a, b), func(f *Fabric) (any, error) {
				return nil, f.AddBinding(a, b, con)
			}
		case 3:
			label, op = fmt.Sprintf("disconnect or reconnect switch %d", sw), func(f *Fabric) (any, error) {
				if f.switches[sw].reachable {
					return nil, f.Disconnect(sw)
				}
				return nil, f.Reconnect(sw)
			}
		case 4:
			label, op = fmt.Sprintf("crash or restart switch %d", sw), func(f *Fabric) (any, error) {
				if f.switches[sw].agentUp {
					return nil, f.CrashAgent(sw)
				}
				return nil, f.RestartAgent(sw)
			}
		case 5:
			ref, fraction := object.Filter(pick(ids(pol.Filters))), []float64{1, 0.5}[c.Intn(2)]
			label, op = fmt.Sprintf("fault %v at %v", ref, fraction), func(f *Fabric) (any, error) {
				return f.InjectObjectFault(ref, fraction)
			}
		case 6:
			n, field := 1+c.Intn(3), tcam.CorruptionField(1+c.Intn(4))
			label, op = fmt.Sprintf("corrupt switch %d", sw), func(f *Fabric) (any, error) { return f.CorruptTCAM(sw, n, field) }
		case 7:
			n := 1 + c.Intn(3)
			label, op = fmt.Sprintf("evict from switch %d", sw), func(f *Fabric) (any, error) { return f.EvictTCAM(sw, n) }
		default:
			if !h.f.switches[sw].reachable && c.Chance(2) {
				h.plant(sw)
				continue
			}
			label = "deploy"
		}
		h.do(fmt.Sprintf("step %d: %s", i, label), op)
	}
}
