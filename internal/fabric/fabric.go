// Package fabric simulates the paper's 3-tier policy deployment pipeline
// (§II): a centralized controller holding the global network policy, a
// software agent per switch maintaining a local logical view, and the
// switch TCAM holding rendered rules. Every element can fail independently
// — controller↔agent disconnection, agent crash mid-update, TCAM overflow,
// TCAM bit corruption, and local rule eviction — producing exactly the
// network-state inconsistencies (§II-B) that SCOUT localizes.
//
// The fabric runs on a deterministic logical clock and a seeded RNG so
// experiments are reproducible.
package fabric

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"scout/internal/compile"
	"scout/internal/faultlog"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
	"scout/internal/topo"
)

// ErrUnknownSwitch is returned when an operation names a switch that is
// not part of the topology.
var ErrUnknownSwitch = errors.New("fabric: unknown switch")

// Options configures a Fabric.
type Options struct {
	// TCAMCapacity is the per-switch TCAM size in entries; <= 0 selects
	// tcam.DefaultCapacity.
	TCAMCapacity int
	// Seed seeds the fabric's RNG (fault injection randomness).
	Seed int64
}

// The fabric's logical clock starts at a fixed epoch, ICDCS'18 day one,
// and every fabric operation advances it by one tick.
var epoch = time.Date(2018, 7, 2, 0, 0, 0, 0, time.UTC)

const tick = time.Second

// Switch is the per-device state: agent health, reachability, the agent's
// local logical view of the policy, and the TCAM.
type Switch struct {
	ID object.ID

	// reachable is false while the control channel to the switch is down.
	reachable bool
	// agentUp is false after a simulated agent crash.
	agentUp bool

	// view is the agent's local logical view: the rule list the controller
	// last delivered, the deployment's own BySwitch entry, held read-only.
	view []rule.Rule

	// pending and withdrawn hold the installs and withdrawals delivered
	// to the agent but not yet applied to TCAM (populated while the agent
	// is down, applied by RestartAgent).
	pending   []rule.Rule
	withdrawn []rule.Rule

	tcam *tcam.TCAM
}

// TCAM exposes the switch's table to writes the fabric does not record:
// tests and bench/ plant and remove rules through it. Analysis reads tables
// only through CollectAll.
func (s *Switch) TCAM() *tcam.TCAM { return s.tcam }

// Fabric is the simulated deployment plane.
type Fabric struct {
	pol      *policy.Policy
	topology *topo.Topology
	switches map[object.ID]*Switch

	changes *faultlog.ChangeLog
	faults  *faultlog.FaultLog
	events  *faultlog.EventLog

	deployed *compile.Deployment // last compiled desired state

	now time.Time
	rng *rand.Rand
}

// New creates a fabric for the given policy and topology. The policy is
// cloned: subsequent edits must go through the fabric's change methods so
// they are recorded in the change log.
func New(p *policy.Policy, t *topo.Topology, opts Options) (*Fabric, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	if err := t.Validate(p); err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	f := &Fabric{
		pol:      p.Clone(),
		topology: t,
		switches: make(map[object.ID]*Switch, t.NumSwitches()),
		changes:  faultlog.NewChangeLog(),
		faults:   faultlog.NewFaultLog(),
		events:   faultlog.NewEventLog(),
		now:      epoch,
		rng:      rand.New(rand.NewSource(opts.Seed)),
	}
	for _, sw := range t.Switches() {
		f.switches[sw] = &Switch{
			ID:        sw,
			reachable: true,
			agentUp:   true,
			tcam:      tcam.New(opts.TCAMCapacity),
		}
	}
	return f, nil
}

// ChangeLog returns the controller change log.
func (f *Fabric) ChangeLog() *faultlog.ChangeLog { return f.changes }

// FaultLog returns the device fault log.
func (f *Fabric) FaultLog() *faultlog.FaultLog { return f.faults }

// EventLog returns the dataplane event stream: one switch-scoped event
// per TCAM mutation, link transition, or EPG placement change. The
// simulator emits events for *every* TCAM write, including the silent
// faults (corruption, eviction) that raise no device fault log — it
// plays the monitoring plane's role, so event-driven collection can be
// exercised against any failure mode. A real deployment's stream would
// miss silent faults; the periodic full-snapshot path exists for those.
func (f *Fabric) EventLog() *faultlog.EventLog { return f.events }

// emit appends a switch-scoped event at the current logical time.
func (f *Fabric) emit(kind faultlog.EventKind, sw object.ID, detail string) {
	f.events.Append(f.now, kind, sw, detail)
}

// Now returns the current logical time.
func (f *Fabric) Now() time.Time { return f.now }

// Deployment returns the most recently compiled desired state (nil before
// the first Deploy).
func (f *Fabric) Deployment() *compile.Deployment { return f.deployed }

// Switch returns the state of switch sw.
func (f *Fabric) Switch(sw object.ID) (*Switch, error) {
	s, ok := f.switches[sw]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownSwitch, sw)
	}
	return s, nil
}

func (f *Fabric) advance() time.Time {
	f.now = f.now.Add(tick)
	return f.now
}

// Deploy compiles the current policy and pushes per-switch instruction
// deltas to every agent. Unreachable switches receive nothing; crashed
// agents accept instructions into their pending queue but do not render
// them. TCAM overflow during rendering raises a fault-log event.
func (f *Fabric) Deploy() error {
	d, err := compile.Compile(f.pol, f.topology)
	if err != nil {
		return err
	}
	f.deployed = d
	for _, sw := range f.topology.Switches() {
		f.pushToSwitch(f.switches[sw], d.BySwitch[sw])
	}
	return nil
}

// pushToSwitch delivers the desired rule list — one switch's
// compile.Deployment.BySwitch entry — to a switch's agent, emitting one
// TCAM-change event when the TCAM was mutated. The old view and the new
// list both ascend by rule.Compare with one rule a key, and a compiled key
// fixes its priority, so one walk of the two finds the stale rules and the
// new ones, each in its list's order.
func (f *Fabric) pushToSwitch(s *Switch, desired []rule.Rule) {
	if !s.reachable {
		return // instructions lost; controller-side state already updated
	}
	var stale, adds []rule.Rule
	i, j := 0, 0
	for i < len(s.view) && j < len(desired) {
		switch c := rule.Compare(s.view[i], desired[j]); {
		case c < 0:
			stale = append(stale, s.view[i])
			i++
		case c > 0:
			adds = append(adds, desired[j])
			j++
		default:
			i, j = i+1, j+1
		}
	}
	stale, adds = append(stale, s.view[i:]...), append(adds, desired[j:]...)
	s.view = desired
	if !s.agentUp {
		s.withdrawn = append(s.withdrawn, stale...)
		s.pending = append(s.pending, adds...)
	} else if f.apply(s, stale, adds) {
		f.emit(faultlog.EventTCAMChange, s.ID, "policy push")
	}
}

// apply withdraws the stale rules' keys from the switch's TCAM, then
// installs adds in order, logging one overflow fault per rule the full
// table refused. It reports whether the TCAM changed: a rule the table
// already holds (planted through Switch.TCAM, or re-added while the agent
// was down) counts as held but writes nothing.
func (f *Fabric) apply(s *Switch, stale, adds []rule.Rule) bool {
	keys := make([]rule.Key, len(stale))
	for i, r := range stale {
		keys[i] = r.Key()
	}
	changed := s.tcam.RemoveKeys(keys) > 0
	before := s.tcam.Len()
	held := s.tcam.InstallAll(adds)
	for refused := len(adds) - held; refused > 0; refused-- {
		f.faults.Raise(f.now, faultlog.FaultTCAMOverflow, s.ID,
			fmt.Sprintf("tcam at %d/%d entries", s.tcam.Len(), s.tcam.Capacity()))
	}
	return changed || s.tcam.Len() > before
}

// --- Policy change operations (recorded in the change log) ---
//
// An edit is validated before it touches the policy: a refused one changes
// neither the policy nor the change log, so it cannot leave the fabric with
// a policy every later Deploy refuses.

// AddFilter adds a filter object to the policy. An ID the policy holds is
// refused: reusing it would rewrite that filter under every contract using it.
func (f *Fabric) AddFilter(flt policy.Filter) error {
	if _, ok := f.pol.Filters[flt.ID]; ok {
		return fmt.Errorf("fabric: filter %d already exists", flt.ID)
	}
	if err := flt.Validate(); err != nil {
		return fmt.Errorf("fabric: filter %d has %w", flt.ID, err)
	}
	f.pol.AddFilter(flt)
	f.changes.Append(f.advance(), faultlog.OpAdd, object.Filter(flt.ID), "add filter "+flt.Name)
	return f.Deploy()
}

// AddFilterToContract appends an existing filter to a contract and
// redeploys — the paper's "add filter" instruction used by the §V-B use
// cases. A filter the contract already references is refused.
func (f *Fabric) AddFilterToContract(contract, filter object.ID) error {
	c, ok := f.pol.Contracts[contract]
	if !ok {
		return fmt.Errorf("fabric: unknown contract %d", contract)
	}
	if _, ok := f.pol.Filters[filter]; !ok {
		return fmt.Errorf("fabric: unknown filter %d", filter)
	}
	if slices.Contains(c.Filters, filter) {
		return fmt.Errorf("fabric: contract %d already references filter %d", contract, filter)
	}
	c.Filters = append(c.Filters, filter)
	at := f.advance()
	f.changes.Append(at, faultlog.OpModify, object.Contract(contract), "attach filter")
	f.changes.Append(at, faultlog.OpAdd, object.Filter(filter), "add filter to contract",
		f.switchesForContract(contract)...)
	return f.Deploy()
}

// RemoveFilterFromContract detaches a filter from a contract and redeploys.
func (f *Fabric) RemoveFilterFromContract(contract, filter object.ID) error {
	c, ok := f.pol.Contracts[contract]
	if !ok {
		return fmt.Errorf("fabric: unknown contract %d", contract)
	}
	kept := c.Filters[:0]
	removed := false
	for _, fid := range c.Filters {
		if fid == filter && !removed {
			removed = true
			continue
		}
		kept = append(kept, fid)
	}
	if !removed {
		return fmt.Errorf("fabric: contract %d does not reference filter %d", contract, filter)
	}
	c.Filters = kept
	at := f.advance()
	f.changes.Append(at, faultlog.OpModify, object.Contract(contract), "detach filter")
	f.changes.Append(at, faultlog.OpDelete, object.Filter(filter), "remove filter from contract",
		f.switchesForContract(contract)...)
	return f.Deploy()
}

// AddBinding binds a contract to an EPG pair and redeploys. Each switch
// hosting the pair gets an EPG placement event (the subsequent push emits
// TCAM-change events only for switches whose TCAM actually moved). A
// contract the pair is already bound to is refused, in either direction.
func (f *Fabric) AddBinding(from, to, contract object.ID) error {
	if err := f.pol.ValidateBinding(policy.Binding{From: from, To: to, Contract: contract}); err != nil {
		return fmt.Errorf("fabric: binding of contract %d to epgs %d-%d %w", contract, from, to, err)
	}
	for _, b := range f.pol.Bindings {
		if b.Contract == contract && policy.MakeEPGPair(b.From, b.To) == policy.MakeEPGPair(from, to) {
			return fmt.Errorf("fabric: contract %d is already bound to epgs %d-%d", contract, from, to)
		}
	}
	f.pol.Bind(from, to, contract)
	at := f.advance()
	f.changes.Append(at, faultlog.OpModify, object.EPG(from), "bind contract")
	f.changes.Append(at, faultlog.OpModify, object.EPG(to), "bind contract")
	f.changes.Append(at, faultlog.OpModify, object.Contract(contract), "bind to epg pair")
	for _, sw := range f.topology.SwitchesForPair(from, to) {
		f.emit(faultlog.EventEPG, sw, fmt.Sprintf("contract %d bound on hosted pair", contract))
	}
	return f.Deploy()
}

// RecordChange appends an arbitrary change-log entry without altering the
// policy. Workload generators use it to simulate historical operator
// activity.
func (f *Fabric) RecordChange(op faultlog.ChangeOp, obj object.Ref, detail string) {
	f.changes.Append(f.advance(), op, obj, detail)
}

// switchesForContract returns, ascending, the switches hosting a pair the
// contract is bound to.
func (f *Fabric) switchesForContract(contract object.ID) []object.ID {
	var out []object.ID
	for _, b := range f.pol.Bindings {
		if b.Contract == contract {
			out = append(out, f.topology.SwitchesForPair(b.From, b.To)...)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// --- Fault injection (the paper's §II-B failure modes) ---

// Disconnect makes a switch unreachable from the controller (control
// channel disruption / unresponsive switch) and raises a fault event.
func (f *Fabric) Disconnect(sw object.ID) error {
	s, err := f.Switch(sw)
	if err != nil {
		return err
	}
	if s.reachable {
		s.reachable = false
		f.faults.Raise(f.advance(), faultlog.FaultSwitchUnreachable, sw, "heartbeat lost")
		f.emit(faultlog.EventLink, sw, "control channel down")
	}
	return nil
}

// Reconnect restores the control channel. Pending desired state is NOT
// automatically re-pushed (the controller believes the switch is current),
// preserving the inconsistency until the next full Deploy.
func (f *Fabric) Reconnect(sw object.ID) error {
	s, err := f.Switch(sw)
	if err != nil {
		return err
	}
	if !s.reachable {
		s.reachable = true
		f.faults.Clear(f.advance(), faultlog.FaultSwitchUnreachable, sw)
		f.emit(faultlog.EventLink, sw, "control channel restored")
	}
	return nil
}

// CrashAgent stops the switch agent: subsequently delivered instructions
// queue without being rendered into TCAM (agent crash mid-update, §II-B).
func (f *Fabric) CrashAgent(sw object.ID) error {
	s, err := f.Switch(sw)
	if err != nil {
		return err
	}
	if s.agentUp {
		s.agentUp = false
		f.faults.Raise(f.advance(), faultlog.FaultAgentCrash, sw, "agent process died")
	}
	return nil
}

// RestartAgent restarts the agent and applies the queued instructions,
// reconciling TCAM with the agent's view: a queued withdrawal is applied
// unless a later push re-added the rule, and a queued rule is rendered
// unless a later push withdrew it — as its last delivery had it, which a
// key queued twice may have delivered with another provenance.
func (f *Fabric) RestartAgent(sw object.ID) error {
	s, err := f.Switch(sw)
	if err != nil {
		return err
	}
	if !s.agentUp {
		s.agentUp = true
		f.faults.Clear(f.advance(), faultlog.FaultAgentCrash, sw)
		inView := func(r rule.Rule) bool {
			_, ok := slices.BinarySearchFunc(s.view, r, rule.Compare)
			return ok
		}
		stale := slices.DeleteFunc(s.withdrawn, inView)
		last := make(map[rule.Key]rule.Rule, len(s.pending))
		for _, r := range s.pending {
			last[r.Key()] = r
		}
		live := s.pending[:0]
		for _, r := range s.pending {
			if inView(r) {
				live = append(live, last[r.Key()])
			}
		}
		changed := f.apply(s, stale, live)
		s.pending, s.withdrawn = nil, nil
		if changed {
			f.emit(faultlog.EventTCAMChange, sw, "agent restart applied queued instructions")
		}
	}
	return nil
}

// CorruptTCAM flips bits in n random TCAM entries of switch sw. TCAM
// corruption is a silent hardware fault: no fault-log event is raised
// (§V-B notes such faults produce no logs).
func (f *Fabric) CorruptTCAM(sw object.ID, n int, field tcam.CorruptionField) ([]rule.Key, error) {
	if f.deployed == nil {
		return nil, errors.New("fabric: corrupt TCAM before Deploy")
	}
	s, err := f.Switch(sw)
	if err != nil {
		return nil, err
	}
	f.advance()
	keys := s.tcam.Corrupt(n, field, f.rng)
	if len(keys) > 0 {
		f.emit(faultlog.EventTCAMChange, sw, "tcam corruption")
	}
	return keys, nil
}

// EvictTCAM removes n random TCAM entries on switch sw (local eviction the
// controller is unaware of). No fault event is raised.
func (f *Fabric) EvictTCAM(sw object.ID, n int) ([]rule.Rule, error) {
	if f.deployed == nil {
		return nil, errors.New("fabric: evict TCAM before Deploy")
	}
	s, err := f.Switch(sw)
	if err != nil {
		return nil, err
	}
	f.advance()
	evicted := s.tcam.EvictRandom(n, f.rng)
	if len(evicted) > 0 {
		f.emit(faultlog.EventTCAMChange, sw, "local rule eviction")
	}
	return evicted, nil
}

// InjectObjectFault deletes from the TCAMs the rules derived from the
// given policy object. fraction selects the portion of dependent rules to
// delete: 1.0 is the paper's "full object fault", anything lower a
// "partial object fault" (§VI-A). It returns the number of rules removed
// and records a change-log entry for the object (faults in the paper's
// evaluation stem from recent deployment actions on the object).
func (f *Fabric) InjectObjectFault(ref object.Ref, fraction float64) (int, error) {
	if f.deployed == nil {
		return 0, errors.New("fabric: inject object fault before Deploy")
	}
	if !(fraction > 0 && fraction <= 1) { // written so that NaN is refused too
		return 0, fmt.Errorf("fabric: fraction %v out of (0,1]", fraction)
	}
	type target struct {
		sw  object.ID
		key rule.Key
	}
	var targets []target
	for _, sw := range f.topology.Switches() {
		for _, r := range f.deployed.BySwitch[sw] {
			if r.HasProvenance(ref) {
				targets = append(targets, target{sw: sw, key: r.Key()})
			}
		}
	}
	if len(targets) == 0 {
		return 0, nil
	}
	n := len(targets)
	if fraction < 1 {
		n = int(float64(len(targets)) * fraction)
		if n == 0 {
			n = 1
		}
		f.rng.Shuffle(len(targets), func(i, j int) {
			targets[i], targets[j] = targets[j], targets[i]
		})
	}
	// One batched withdrawal per switch: tables are independent, and a
	// switch's keys keep the order they were drawn in.
	bySwitch := make(map[object.ID][]rule.Key)
	for _, t := range targets[:n] {
		bySwitch[t.sw] = append(bySwitch[t.sw], t.key)
	}
	f.changes.Append(f.advance(), faultlog.OpModify, ref, "configuration action preceding fault")
	removed := 0
	for _, sw := range f.topology.Switches() {
		if lost := f.switches[sw].tcam.RemoveKeys(bySwitch[sw]); lost > 0 {
			removed += lost
			f.emit(faultlog.EventTCAMChange, sw, "rules lost: "+ref.String())
		}
	}
	return removed, nil
}

// --- State collection ---

// CollectAll returns every switch's TCAM snapshot (T-type rules). Rule
// collection runs over a management path and is modeled as always
// available, even while the policy control channel is down. Each slice is
// the table's own list, shared and read-only (tcam.TCAM.Rules): the same
// slice until the switch's TCAM is next written, which copies it first, so
// it is never modified afterwards, and not to be modified by the caller. Each rule in it shares its provenance
// slice with the logical rule the agent installed (see rule.Rule). The
// map is the caller's.
func (f *Fabric) CollectAll() map[object.ID][]rule.Rule {
	out := make(map[object.ID][]rule.Rule, len(f.switches))
	for id, s := range f.switches {
		out[id] = s.tcam.Rules()
	}
	return out
}
