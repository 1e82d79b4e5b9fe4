// Package probe implements the paper's alternative observation source
// (§III-C): active connectivity probing. An EPG pair becomes an
// observation when its endpoints are *allowed to communicate by the
// policy but fail to do so* in the dataplane. The prober synthesizes one
// probe packet per (switch, EPG pair, filter entry) from the compiled
// deployment, classifies it against the switch's TCAM, and reports
// violations — policy-allowed probes that the hardware denies (missing
// rules) and policy-denied probes the hardware lets through (extra
// behaviour from corruption).
//
// Probing complements the ROBDD equivalence checker: it needs no access
// to the full TCAM dump (only forwarding behaviour), at the cost of
// sampling rather than exhaustively verifying the header space. Both
// sources feed the same risk-model augmentation.
package probe

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/tcam"
)

// Packet is one synthesized probe: the header tuple a pair's traffic
// would carry.
type Packet struct {
	VRF    object.ID
	SrcEPG object.ID
	DstEPG object.ID
	Proto  rule.Protocol
	Port   uint16
}

// String renders the probe header.
func (p Packet) String() string {
	return fmt.Sprintf("vrf=%d %d->%d %s:%d", p.VRF, p.SrcEPG, p.DstEPG, p.Proto, p.Port)
}

// Violation is one probe outcome that contradicts the policy.
type Violation struct {
	Switch object.ID
	Pair   policy.EPGPair
	Packet Packet
	// Expected is the action the policy prescribes; Got is what the TCAM
	// did (Got == 0 when no rule matched at all).
	Expected rule.Action
	Got      rule.Action
	// Rule is the logical rule the probe was derived from; its
	// provenance identifies the implicated policy objects. It is the
	// deployment's rule by value and shares that rule's provenance slice
	// (see rule.Rule).
	Rule rule.Rule
}

// String renders the violation for logs.
func (v Violation) String() string {
	return fmt.Sprintf("switch %d pair %s probe %s: want %v, got %v",
		v.Switch, v.Pair, v.Packet, v.Expected, v.Got)
}

// Classifier is the dataplane surface a probe needs: first-match
// classification. *tcam.TCAM implements it.
type Classifier interface {
	Classify(vrf, src, dst object.ID, proto rule.Protocol, port uint16) (rule.Action, bool)
}

var _ Classifier = (*tcam.TCAM)(nil)

// BatchClassifier is a Classifier that can resolve a whole packet batch
// in one rule-major pass over its table. The prober feeds it per-switch
// batches so an n-entry TCAM is scanned once per probe round instead of
// once per probe; any plain Classifier still works via the per-packet
// fallback in classifyBatch. *tcam.TCAM implements it.
type BatchClassifier interface {
	Classifier
	ClassifyBatch(pkts []tcam.Packet) []tcam.Outcome
}

var _ BatchClassifier = (*tcam.TCAM)(nil)

// Prober synthesizes and evaluates probes for a compiled deployment.
// Probe packets are memoized per rule key — i.e. per (VRF, EPG pair,
// filter entry) — so switches sharing EPG pairs reuse each other's
// packets instead of re-synthesizing them; a long-lived Prober (the
// analyzer keeps one per deployment fingerprint) amortizes the memo
// across analysis runs, not just within one. The memo is guarded, so one
// Prober may serve concurrent ProbeSwitch calls from the analyzer's
// worker pool.
type Prober struct {
	// d is atomic so Rebind can swap deployments without racing probe
	// calls in flight (callers only rebind to fingerprint-equal
	// deployments, so either pointer yields the same rules).
	d atomic.Pointer[compile.Deployment]

	mu      sync.RWMutex
	packets map[rule.Key]Packet
	// hits/misses are atomic so the steady-state hit path stays on the
	// shared read lock instead of serializing the worker fan-out.
	hits   atomic.Int64
	misses atomic.Int64

	// Batch-path counters: passes counts rule-major batch
	// classifications issued, batched counts the packets those passes
	// resolved, and fallback counts packets classified one at a time
	// because the dataplane was not a BatchClassifier.
	batchPasses    atomic.Int64
	batchedPackets atomic.Int64
	fallbackProbes atomic.Int64
}

// Stats is a snapshot of a Prober's cumulative counters: the packet-memo
// hit/miss counts (cross-switch and cross-run synthesis sharing) and the
// batch-classification counters.
type Stats struct {
	MemoHits   int
	MemoMisses int
	// BatchPasses is the number of rule-major batch passes issued;
	// BatchedPackets the probes they resolved. FallbackProbes counts
	// probes classified per-packet against non-batching dataplanes.
	BatchPasses    int
	BatchedPackets int
	FallbackProbes int
}

// New creates a prober over the deployment.
func New(d *compile.Deployment) *Prober {
	p := &Prober{packets: make(map[rule.Key]Packet)}
	p.d.Store(d)
	return p
}

// Rebind points the prober at d, keeping the packet memo. For callers
// that verified d fingerprint-matches the prober's current deployment
// (the analyzer's per-deployment cache): packets are pure functions of
// rule keys, so the memo stays valid, and rebinding releases the
// superseded deployment instead of pinning it for the prober's life.
func (p *Prober) Rebind(d *compile.Deployment) { p.d.Store(d) }

// packetFor returns the memoized probe packet for an eligible rule,
// synthesizing and caching it on first sight of the rule's key.
func (p *Prober) packetFor(r rule.Rule) Packet {
	k := r.Key()
	p.mu.RLock()
	pkt, ok := p.packets[k]
	p.mu.RUnlock()
	if ok {
		p.hits.Add(1)
		return pkt
	}
	pkt = Packet{
		VRF:    r.Match.VRF,
		SrcEPG: r.Match.SrcEPG,
		DstEPG: r.Match.DstEPG,
		Proto:  r.Match.Proto,
		Port:   r.Match.PortLo,
	}
	p.mu.Lock()
	if _, raced := p.packets[k]; !raced {
		p.misses.Add(1)
		p.packets[k] = pkt
	} else {
		p.hits.Add(1)
	}
	p.mu.Unlock()
	return pkt
}

// MemoStats returns the packet memo's cumulative hit and miss counts —
// the observability hook for cross-switch probe-synthesis sharing.
func (p *Prober) MemoStats() (hits, misses int) {
	return int(p.hits.Load()), int(p.misses.Load())
}

// Stats returns a snapshot of every prober counter.
func (p *Prober) Stats() Stats {
	return Stats{
		MemoHits:       int(p.hits.Load()),
		MemoMisses:     int(p.misses.Load()),
		BatchPasses:    int(p.batchPasses.Load()),
		BatchedPackets: int(p.batchedPackets.Load()),
		FallbackProbes: int(p.fallbackProbes.Load()),
	}
}

// probeEligible reports whether r contributes a probe: concrete EPG
// pairs only, allow rules only (the paper's "allowed to communicate but
// fail to do so" observation).
func probeEligible(r rule.Rule) bool {
	return r.Action == rule.Allow && !r.Match.WildcardSrc && !r.Match.WildcardDst
}

// violationFrom converts one classification outcome into a Violation,
// reporting ok=true when the outcome contradicts the rule the probe was
// derived from. An unmatched probe reports Got == 0.
func violationFrom(sw object.ID, r rule.Rule, pkt Packet, o tcam.Outcome) (Violation, bool) {
	if o.Matched && o.Action == r.Action {
		return Violation{}, false
	}
	got := o.Action
	if !o.Matched {
		got = 0
	}
	return Violation{
		Switch:   sw,
		Pair:     policy.MakeEPGPair(pkt.SrcEPG, pkt.DstEPG),
		Packet:   pkt,
		Expected: r.Action,
		Got:      got,
		Rule:     r,
	}, true
}

// classifyBatch resolves the probe packets against a dataplane: one
// rule-major pass when the dataplane batches, per-packet Classify calls
// otherwise. Outcomes are positional, and identical between the two
// paths. The second return reports whether the batch path was taken.
func classifyBatch(dataplane Classifier, pkts []Packet) ([]tcam.Outcome, bool) {
	if bc, ok := dataplane.(BatchClassifier); ok {
		batch := make([]tcam.Packet, len(pkts))
		for i, p := range pkts {
			batch[i] = tcam.Packet{VRF: p.VRF, Src: p.SrcEPG, Dst: p.DstEPG, Proto: p.Proto, Port: p.Port}
		}
		return bc.ClassifyBatch(batch), true
	}
	out := make([]tcam.Outcome, len(pkts))
	for i, p := range pkts {
		action, matched := dataplane.Classify(p.VRF, p.SrcEPG, p.DstEPG, p.Proto, p.Port)
		out[i] = tcam.Outcome{Action: action, Matched: matched}
	}
	return out, false
}

// probeSwitch synthesizes switch sw's probe batch, classifies it, and
// appends the violations to out (unsorted) — the shared body of
// ProbeSwitch and ProbeAll.
func (p *Prober) probeSwitch(sw object.ID, dataplane Classifier, out []Violation) []Violation {
	var eligible []rule.Rule
	for _, r := range p.d.Load().RulesFor(sw) {
		if probeEligible(r) {
			eligible = append(eligible, r)
		}
	}
	if len(eligible) == 0 {
		return out
	}
	pkts := make([]Packet, len(eligible))
	for i, r := range eligible {
		pkts[i] = p.packetFor(r)
	}
	outcomes, batched := classifyBatch(dataplane, pkts)
	if batched {
		p.batchPasses.Add(1)
		p.batchedPackets.Add(int64(len(pkts)))
	} else {
		p.fallbackProbes.Add(int64(len(pkts)))
	}
	for i, r := range eligible {
		if v, ok := violationFrom(sw, r, pkts[i], outcomes[i]); ok {
			out = append(out, v)
		}
	}
	return out
}

// ProbeSwitch probes every (pair, rule) deployed on switch sw against
// the given classifier and returns the violations in deterministic
// order. Each allow rule contributes one probe at its low port (the
// paper's per-rule missing/present granularity). The switch's probes go
// to the dataplane as one batch, so a batching dataplane (a TCAM) is
// scanned once rather than once per probe.
func (p *Prober) ProbeSwitch(sw object.ID, dataplane Classifier) []Violation {
	out := p.probeSwitch(sw, dataplane, nil)
	sort.Slice(out, func(i, j int) bool { return violationLess(out[i], out[j]) })
	return out
}

// ProbeAll probes every switch in the deployment. dataplanes maps switch
// IDs to their classification surface (e.g. collected from
// fabric.Fabric via Switch(sw).TCAM()).
//
// Switches are visited in ascending ID order and each switch's probes
// are classified as one batch. Packet synthesis still shares across
// switches through the memo — repeated keys hit instead of
// re-synthesizing, so MemoStats keeps measuring cross-switch sharing.
// The violation order is identical to the per-switch form: violationLess
// leads with the switch ID, so one global sort reproduces the
// concatenation of per-switch sorted outputs.
//
// ProbeAll is the serial batch entry point (library users probing
// collected dataplanes in one call); the analyzer's probe pipeline
// instead fans ProbeSwitch out per switch over its worker pool, sharing
// the same packet memo and per-switch batch passes.
func (p *Prober) ProbeAll(dataplanes map[object.ID]Classifier) []Violation {
	d := p.d.Load()
	var switches []object.ID
	for sw := range d.BySwitch {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })

	var out []Violation
	for _, sw := range switches {
		dataplane, ok := dataplanes[sw]
		if !ok {
			continue
		}
		out = p.probeSwitch(sw, dataplane, out)
	}
	sort.Slice(out, func(i, j int) bool { return violationLess(out[i], out[j]) })
	return out
}

// violationLess orders violations by switch, then pair, then the source
// rule under rule.Less. The rule comparison makes the order total for
// any deduped rule list (the packet is a pure function of the rule), so
// the batched ProbeAll and the per-switch ProbeSwitch forms sort tied
// probes — same pair, proto, and port but e.g. opposite direction or
// different port ranges — identically regardless of insertion order.
func violationLess(a, b Violation) bool {
	if a.Switch != b.Switch {
		return a.Switch < b.Switch
	}
	if a.Pair != b.Pair {
		return a.Pair.Less(b.Pair)
	}
	return rule.Less(a.Rule, b.Rule)
}

// MissingRules converts violations into the missing-rule form the risk
// models consume (the same shape the equivalence checker outputs): the
// logical rules whose behaviour the probes showed to be absent.
func MissingRules(violations []Violation) []rule.Rule {
	seen := make(map[rule.Key]struct{}, len(violations))
	var out []rule.Rule
	for _, v := range violations {
		k := v.Rule.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v.Rule)
	}
	return out
}
