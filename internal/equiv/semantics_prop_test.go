// Property tests for the semantics-sharing layer: the canonical rule-list
// fingerprint (order sensitivity, field coverage, collision freedom on
// randomized lists) and the identity between frozen whole-switch
// semantics roots and per-fork folds.

package equiv

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/object"
	"scout/internal/oracle"
	"scout/internal/rule"
)

// randRule draws a rule from a small ID space so randomized lists share
// plenty of matches (the regime semantics sharing targets) while staying
// encodable.
func randRule(rng *rand.Rand) rule.Rule {
	lo := uint16(rng.Intn(1000))
	r := rule.Rule{
		Match: rule.Match{
			VRF:    object.ID(1 + rng.Intn(4)),
			SrcEPG: object.ID(1 + rng.Intn(16)),
			DstEPG: object.ID(1 + rng.Intn(16)),
			Proto:  rule.ProtoTCP,
			PortLo: lo,
			PortHi: lo + uint16(rng.Intn(100)),
		},
		Action:   rule.Allow,
		Priority: 10,
	}
	if rng.Intn(4) == 0 {
		r.Action = rule.Deny
	}
	if rng.Intn(8) == 0 {
		r.Provenance = []object.Ref{object.Filter(object.ID(5000 + rng.Intn(50)))}
	}
	return r
}

func randRuleList(rng *rand.Rand, n int) []rule.Rule {
	rules := make([]rule.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		rules = append(rules, randRule(rng))
	}
	return append(rules, rule.DefaultDeny())
}

// TestSemanticsFingerprintCanonicalization pins what the semantics key
// must and must not see: list order and every match/action field move
// it; priority and provenance — which cannot influence the fold — do
// not, and that indifference is exactly what lets a provenance-free TCAM
// collection share its logical list's key.
func TestSemanticsFingerprintCanonicalization(t *testing.T) {
	base := []rule.Rule{
		allowRule(101, 1, 2, 80, object.Filter(5000)),
		allowRule(101, 2, 1, 80, object.Filter(5000)),
		rule.DefaultDeny(),
	}
	fp := SemanticsFingerprint(base)
	if fp != SemanticsFingerprint(base) {
		t.Fatal("semantics fingerprint not deterministic")
	}
	if SemanticsFingerprint(nil) != SemanticsFingerprint([]rule.Rule{}) {
		t.Error("nil and empty lists must fingerprint alike")
	}
	if fp == Fingerprint(base) {
		t.Error("semantics keyspace must be domain-separated from Fingerprint")
	}

	clone := func() []rule.Rule { return oracle.CloneRules(base) }

	moves := map[string]func([]rule.Rule){
		"swap order":    func(rs []rule.Rule) { rs[0], rs[1] = rs[1], rs[0] },
		"change vrf":    func(rs []rule.Rule) { rs[0].Match.VRF = 102 },
		"change src":    func(rs []rule.Rule) { rs[0].Match.SrcEPG = 9 },
		"change dst":    func(rs []rule.Rule) { rs[0].Match.DstEPG = 9 },
		"change proto":  func(rs []rule.Rule) { rs[0].Match.Proto = rule.ProtoUDP },
		"change port":   func(rs []rule.Rule) { rs[0].Match.PortHi = 81 },
		"change action": func(rs []rule.Rule) { rs[0].Action = rule.Deny },
		"set wildcard":  func(rs []rule.Rule) { rs[0].Match.WildcardSrc = true },
	}
	for name, f := range moves {
		rs := clone()
		f(rs)
		if SemanticsFingerprint(rs) == fp {
			t.Errorf("%s: semantics fingerprint unchanged", name)
		}
	}
	if SemanticsFingerprint(base[:len(base)-1]) == fp {
		t.Error("drop rule: semantics fingerprint unchanged")
	}

	holds := map[string]func([]rule.Rule){
		"change priority":   func(rs []rule.Rule) { rs[0].Priority++ },
		"change provenance": func(rs []rule.Rule) { rs[0].Provenance = []object.Ref{object.Filter(5001)} },
		"drop provenance":   func(rs []rule.Rule) { rs[0].Provenance = nil },
	}
	for name, f := range holds {
		rs := clone()
		f(rs)
		if SemanticsFingerprint(rs) != fp {
			t.Errorf("%s: semantics fingerprint moved on a fold-invisible field", name)
		}
	}
}

// TestSemanticsFingerprintRandomizedCollisionFree draws many randomized
// rule lists — including order permutations of one list, which are the
// likeliest near-collisions — and requires all structurally distinct
// lists to key distinctly (64 bits make a true collision vanishingly
// unlikely at this scale; one would indicate a hashing bug).
func TestSemanticsFingerprintRandomizedCollisionFree(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	seen := make(map[uint64][]rule.Rule)
	record := func(rs []rule.Rule) {
		fp := SemanticsFingerprint(rs)
		if prev, ok := seen[fp]; ok {
			if !SemanticsEqual(prev, rs) {
				t.Fatalf("semantics fingerprint collision between distinct lists:\n%v\n%v", prev, rs)
			}
			return
		}
		// Copy: some callers reshuffle their slice in place between calls.
		seen[fp] = append([]rule.Rule(nil), rs...)
	}
	for i := 0; i < 2000; i++ {
		record(randRuleList(rng, 1+rng.Intn(12)))
	}
	// Permutations of one list must all key distinctly (order is part of
	// the canonical form).
	perm := randRuleList(rng, 8)
	for i := 0; i < 200; i++ {
		rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
		record(perm)
	}
	if len(seen) < 2000 {
		t.Fatalf("only %d distinct fingerprints recorded; generator degenerate", len(seen))
	}
}

// TestSharedSemanticsIdentity is the fold-sharing identity contract: a
// fork resolving whole-switch semantics from frozen base roots reports
// exactly what a standalone checker (private fold) reports, across
// randomized L/T pairs with every verdict shape, and the warmed folds
// cost the fork nothing (no fold misses, roots frozen in the base).
func TestSharedSemanticsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		logical := randRuleList(rng, 2+rng.Intn(10))
		var deployed []rule.Rule
		switch trial % 3 {
		case 0: // consistent: same semantics, no provenance (the TCAM shape)
			for _, r := range logical {
				r.Provenance = nil
				deployed = append(deployed, r)
			}
		case 1: // drifted: drop a rule
			for i, r := range logical {
				if i == len(logical)/2 {
					continue
				}
				deployed = append(deployed, r)
			}
		case 2: // corrupted: a novel match, warmed here via the deployed list
			deployed = append(deployed, logical[0])
			novel := randRule(rng)
			novel.Match.DstEPG = object.ID(4000 + trial)
			deployed = append(deployed, novel, rule.DefaultDeny())
		}

		base := newBase(logical, deployed)
		wantRoots := 2
		if SemanticsFingerprint(logical) == SemanticsFingerprint(deployed) {
			wantRoots = 1
		}
		if base.NumSemantics() != wantRoots {
			t.Fatalf("trial %d: base froze %d semantics roots, want %d", trial, base.NumSemantics(), wantRoots)
		}
		fork := base.NewChecker()
		want, err := NewChecker().Check(logical, deployed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fork.Check(logical, deployed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: fork report %+v differs from standalone %+v", trial, got, want)
		}
		st := fork.Stats()
		if st.FoldMisses != 0 {
			t.Errorf("trial %d: fully warmed fork folded %d lists privately", trial, st.FoldMisses)
		}
		if st.FoldBaseHits == 0 {
			t.Errorf("trial %d: fork never hit a frozen semantics root", trial)
		}
		// Delta accounting: every frozen root is base-resident, so
		// resolving it costs the fork no nodes.
		for fp, e := range base.semMem {
			if !base.snap.Contains(e.node) {
				t.Errorf("trial %d: frozen root for fp %x lives outside the base", trial, fp)
			}
		}
	}
}

// TestRebindSemantics: re-pointing the frozen entries at a byte-equal
// deployment's slices keeps every root, swaps the verification
// references (releasing the old slices), and ignores lists the base
// never froze.
func TestRebindSemantics(t *testing.T) {
	listA := withDeny(allowRule(1, 2, 3, 80))
	listB := withDeny(allowRule(1, 3, 2, 443))
	base := newBase(listA, listB)

	newA, newB := oracle.CloneRules(listA), oracle.CloneRules(listB)
	novel := withDeny(allowRule(9, 9, 9, 9))
	base.RebindSemantics(map[object.ID][]rule.Rule{1: newA, 2: newB, 3: novel})

	if base.NumSemantics() != 2 {
		t.Fatalf("rebind changed the root count: %d", base.NumSemantics())
	}
	for name, want := range map[string][]rule.Rule{"A": newA, "B": newB} {
		e, ok := base.semMem[SemanticsFingerprint(want)]
		if !ok {
			t.Fatalf("list %s lost its root", name)
		}
		if &e.rules[0] != &want[0] {
			t.Errorf("list %s still references the superseded slice", name)
		}
	}
	// Checks still resolve from the rebound entries.
	fork := base.NewChecker()
	if _, err := fork.Check(listA, newA); err != nil {
		t.Fatal(err)
	}
	if st := fork.Stats(); st.FoldBaseHits != 2 || st.FoldMisses != 0 {
		t.Errorf("rebound roots not hit: %+v", st)
	}
}

// TestSemanticsBaseMissFoldsInDelta covers the copy-on-write side of
// fold sharing: a collected list absent from the base compiles into the
// fork's private delta (counted as a fold miss) and is not remembered — a
// repeat compiles it again while the logical side still hits — and the
// base stays untouched. The drifted list keeps two rules: a one-rule list
// is its rule's match encoding, which the base warmed, and would cost the
// fork nothing.
func TestSemanticsBaseMissFoldsInDelta(t *testing.T) {
	logical := withDeny(allowRule(1, 2, 3, 80), allowRule(1, 3, 2, 443), allowRule(2, 4, 5, 22))
	drifted := withDeny(allowRule(1, 2, 3, 80), allowRule(2, 4, 5, 22))

	base := newBase(logical)
	fork := base.NewChecker()
	first, err := fork.Check(logical, drifted)
	if err != nil {
		t.Fatal(err)
	}
	st := fork.Stats()
	if st.FoldBaseHits != 1 {
		t.Errorf("logical side must hit the frozen root: %+v", st)
	}
	if st.FoldMisses != 1 {
		t.Errorf("drifted side must fold privately: %+v", st)
	}
	if fork.DeltaSize() == 0 {
		t.Error("private compile must allocate delta nodes")
	}
	if base.Size() != base.snap.Size() {
		t.Error("base must be unchanged by fork folds")
	}
	remembered := len(fork.semMem)

	// Re-checking the same pair resolves the logical side from the base and
	// compiles the collected side again: the checker kept no reference to it.
	again, err := fork.Check(logical, drifted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("repeat check reported %+v, first %+v", again, first)
	}
	st2 := fork.Stats()
	if st2.FoldBaseHits != st.FoldBaseHits+1 {
		t.Errorf("repeat check must hit the frozen root again: %+v", st2)
	}
	if st2.FoldMisses != st.FoldMisses+1 || st2.FoldLocalHits != st.FoldLocalHits {
		t.Errorf("repeat check must recompile the collected list, not remember it: %+v", st2)
	}
	if len(fork.semMem) != remembered {
		t.Errorf("the fork's memo grew %d -> %d over checks of one logical list", remembered, len(fork.semMem))
	}

	// Reset discards the local semantics memo with the delta; the frozen
	// roots stay warm.
	fork.Reset()
	if _, err := fork.Check(logical, drifted); err != nil {
		t.Fatal(err)
	}
	st3 := fork.Stats()
	if st3.FoldMisses != st2.FoldMisses+1 {
		t.Errorf("post-Reset check must re-fold the unwarmed list once: %+v", st3)
	}
	if st3.FoldBaseHits != st2.FoldBaseHits+1 {
		t.Errorf("post-Reset check must still hit the frozen root: %+v", st3)
	}
}

// TestNewBaseSkipsUnfoldableLists mirrors the unencodable-match contract
// for whole lists: a list whose rules cannot encode contributes no
// frozen root, and the owning switch's check still reports the error.
func TestNewBaseSkipsUnfoldableLists(t *testing.T) {
	good := withDeny(allowRule(1, 2, 3, 80))
	bad := []rule.Rule{{
		Match:  rule.Match{VRF: 1, SrcEPG: 2, DstEPG: 3, PortLo: 90, PortHi: 80},
		Action: rule.Allow,
	}}
	base := newBase(good, bad, good)
	if base.NumSemantics() != 1 {
		t.Errorf("NumSemantics = %d, want 1 (bad list skipped, duplicate collapsed)", base.NumSemantics())
	}
	fork := base.NewChecker()
	if _, err := fork.Check(bad, nil); err == nil {
		t.Error("fork must still report the encode error for the bad list")
	}
}

// TestSemanticsCollisionFallsThrough forces a fingerprint collision by
// planting a base entry whose stored canonical list disagrees with the
// checker's input: the hit verification must reject it and fold
// privately, producing the correct (standalone-identical) report.
func TestSemanticsCollisionFallsThrough(t *testing.T) {
	listA := withDeny(allowRule(1, 2, 3, 80))
	listB := withDeny(allowRule(1, 2, 3, 443), allowRule(1, 3, 2, 80))

	base := newBase(listA)
	// Simulate a 64-bit collision: re-key listA's frozen root under
	// listB's fingerprint (whitebox — nothing else can produce one).
	entry := base.semMem[SemanticsFingerprint(listA)]
	delete(base.semMem, SemanticsFingerprint(listA))
	base.semMem[SemanticsFingerprint(listB)] = entry

	fork := base.NewChecker()
	want, err := NewChecker().Check(listB, listA)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fork.Check(listB, listA)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("collision reused the wrong root: got %+v, want %+v", got, want)
	}
	st := fork.Stats()
	if st.FoldBaseHits != 0 {
		t.Errorf("colliding entry must not count as a base hit: %+v", st)
	}
	if st.FoldMisses != 2 {
		t.Errorf("both sides must fold privately after the collision: %+v", st)
	}
}
