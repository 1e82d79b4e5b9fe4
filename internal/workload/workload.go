// Package workload synthesizes network policies, topologies, and fault
// scenarios for evaluation, substituting for the paper's production
// cluster dataset and hardware testbed (§VI-A).
//
// The production-like generator is calibrated to the paper's reported
// dataset (6 VRFs, 615 EPGs, 386 contracts, 160 filters, ~30 switches)
// and to the Figure 3 sharing CDFs: a few VRFs scope the vast majority of
// EPG pairs, EPG popularity is heavy-tailed, and most contracts/filters
// serve fewer than 10 EPG pairs while a small fraction serve hundreds.
// The testbed generator reproduces the §VI-A testbed policy (36 EPGs, 24
// contracts, 9 filters, 100 EPG pairs) whose low risk sharing explains
// the accuracy differences the paper observes between the two setups.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"scout/internal/object"
	"scout/internal/policy"
	"scout/internal/rule"
	"scout/internal/topo"
)

// Spec parameterizes policy synthesis.
type Spec struct {
	Name      string
	Switches  int
	VRFs      int
	EPGs      int
	Contracts int
	Filters   int

	// TargetPairs is the approximate number of distinct EPG pairs the
	// bindings should produce.
	TargetPairs int

	// EndpointsPerEPGMax bounds endpoints per EPG (min 1).
	EndpointsPerEPGMax int
	// SwitchesPerEPGMax bounds the distinct switches an EPG's endpoints
	// spread over.
	SwitchesPerEPGMax int

	// HeavyContractFrac is the fraction of contracts with heavy-tailed
	// (large) EPG-pair usage; the rest serve <10 pairs, per Figure 3.
	HeavyContractFrac float64
	// FiltersPerContractMax bounds filters referenced per contract.
	FiltersPerContractMax int
	// EntriesPerFilterMax bounds entries per filter.
	EntriesPerFilterMax int

	// EPGZipfExponent skews EPG popularity when sampling binding
	// endpoints (0 = uniform).
	EPGZipfExponent float64

	// VRFWeights splits EPGs across VRFs; it is normalized internally and
	// padded/truncated to VRFs entries. A strongly skewed split gives the
	// "2-3% of VRFs shared by >10k pairs" shape.
	VRFWeights []float64
}

// ProductionSpec mirrors the paper's production-cluster dataset (§VI-A).
func ProductionSpec() Spec {
	return Spec{
		Name:                  "production",
		Switches:              30,
		VRFs:                  6,
		EPGs:                  615,
		Contracts:             386,
		Filters:               160,
		TargetPairs:           20000,
		EndpointsPerEPGMax:    3,
		SwitchesPerEPGMax:     3,
		HeavyContractFrac:     0.2,
		FiltersPerContractMax: 3,
		EntriesPerFilterMax:   3,
		EPGZipfExponent:       0.8,
		VRFWeights:            []float64{0.45, 0.20, 0.12, 0.10, 0.08, 0.05},
	}
}

// SmallFabricSpec models a realistic small deployment — one pod of leaf
// switches — rather than a linearly shrunken hyperscale cluster. Linear
// shrinking of ProductionSpec distorts the structural ratios small-scale
// experiments depend on: pair dedup bites harder in small EPG cohorts
// (cutting EPG pairs per switch well below the production ~330), the
// heavy contract tail starves, and the per-switch rule load still
// overflows a default leaf TCAM, so every "baseline" starts inconsistent.
// This spec keeps the production order of per-switch pair density (~130
// EPG pairs per switch versus the testbed's ~16) and its skews
// (heavy-tailed contracts, Zipf EPG popularity, dominant-VRF split) while
// sizing contracts so a clean deployment fills roughly half the default
// TCAM — the way a real small fabric is provisioned, leaving a baseline
// that is consistent until a fault is injected.
func SmallFabricSpec() Spec {
	return Spec{
		Name:                  "small-fabric",
		Switches:              8,
		VRFs:                  3,
		EPGs:                  128,
		Contracts:             64,
		Filters:               30,
		TargetPairs:           2300,
		EndpointsPerEPGMax:    2,
		SwitchesPerEPGMax:     2,
		HeavyContractFrac:     0.2,
		FiltersPerContractMax: 2,
		EntriesPerFilterMax:   2,
		EPGZipfExponent:       0.8,
		VRFWeights:            []float64{0.5, 0.3, 0.2},
	}
}

// TestbedSpec mirrors the paper's hardware testbed policy (§VI-A): 36
// EPGs, 24 contracts, 9 filters, 100 EPG pairs, with a low degree of risk
// sharing.
func TestbedSpec() Spec {
	return Spec{
		Name:                  "testbed",
		Switches:              6,
		VRFs:                  1,
		EPGs:                  36,
		Contracts:             24,
		Filters:               9,
		TargetPairs:           100,
		EndpointsPerEPGMax:    2,
		SwitchesPerEPGMax:     2,
		HeavyContractFrac:     0.1,
		FiltersPerContractMax: 2,
		EntriesPerFilterMax:   2,
		EPGZipfExponent:       0.3,
		VRFWeights:            []float64{1},
	}
}

// SpecByName returns the spec the command-line tools name production,
// testbed or small.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "production":
		return ProductionSpec(), nil
	case "testbed":
		return TestbedSpec(), nil
	case "small":
		return SmallFabricSpec(), nil
	}
	return Spec{}, fmt.Errorf("unknown spec %q (want production, testbed, or small)", name)
}

// Generate synthesizes a policy and topology from the spec, seeded for
// reproducibility.
func Generate(spec Spec, seed int64) (*policy.Policy, *topo.Topology, error) {
	if spec.VRFs <= 0 || spec.EPGs < 2 || spec.Contracts <= 0 || spec.Filters <= 0 || spec.Switches <= 0 {
		return nil, nil, fmt.Errorf("workload: degenerate spec %+v", spec)
	}
	rng := rand.New(rand.NewSource(seed))
	p := policy.New(spec.Name)

	// VRFs.
	for i := 0; i < spec.VRFs; i++ {
		p.AddVRF(policy.VRF{ID: object.ID(100 + i), Name: fmt.Sprintf("vrf-%d", i)})
	}

	// EPG → VRF assignment by (normalized) weight.
	weights := normalizeWeights(spec.VRFWeights, spec.VRFs)
	epgVRF := make([]object.ID, spec.EPGs)
	for i := 0; i < spec.EPGs; i++ {
		v := sampleWeighted(rng, weights)
		epgVRF[i] = object.ID(100 + v)
		p.AddEPG(policy.EPG{ID: object.ID(1000 + i), Name: fmt.Sprintf("epg-%d", i), VRF: epgVRF[i]})
	}

	// Filters with mutually disjoint port ranges so compiled rule
	// semantics never partially overlap: a rule a fault removes is then
	// one the check reports missing, so an experiment may take
	// Scenario.Missing for the check's report.
	maxEntries := spec.EntriesPerFilterMax
	if maxEntries < 1 {
		maxEntries = 1
	}
	for i := 0; i < spec.Filters; i++ {
		entries := 1 + rng.Intn(maxEntries)
		f := policy.Filter{ID: object.ID(5000 + i), Name: fmt.Sprintf("filter-%d", i)}
		for e := 0; e < entries; e++ {
			base := uint16(1024 + i*maxEntries*8 + e*8)
			width := uint16(rng.Intn(7))
			proto := rule.ProtoTCP
			if rng.Intn(3) == 0 {
				proto = rule.ProtoUDP
			}
			f.Entries = append(f.Entries, policy.FilterEntry{
				Proto:  proto,
				PortLo: base,
				PortHi: base + width,
				Action: rule.Allow,
			})
		}
		p.AddFilter(f)
	}

	// Contracts referencing Zipf-popular filters.
	maxFilters := spec.FiltersPerContractMax
	if maxFilters < 1 {
		maxFilters = 1
	}
	filterRanks := zipfRanks(rng, spec.Filters, 1.0)
	for i := 0; i < spec.Contracts; i++ {
		n := 1 + rng.Intn(maxFilters)
		seen := make(map[int]struct{}, n)
		c := policy.Contract{ID: object.ID(3000 + i), Name: fmt.Sprintf("contract-%d", i)}
		for len(c.Filters) < n {
			fi := filterRanks.sample(rng)
			if _, dup := seen[fi]; dup {
				if len(seen) == spec.Filters {
					break
				}
				continue
			}
			seen[fi] = struct{}{}
			c.Filters = append(c.Filters, object.ID(5000+fi))
		}
		p.AddContract(c)
	}

	// Endpoints and switch placement.
	epID := object.ID(20000)
	maxEPs := spec.EndpointsPerEPGMax
	if maxEPs < 1 {
		maxEPs = 1
	}
	maxSw := spec.SwitchesPerEPGMax
	if maxSw < 1 {
		maxSw = 1
	}
	if maxSw > spec.Switches {
		// A tiny fabric can have fewer switches than the spread bound;
		// sampling more than exist would slice past the permutation.
		maxSw = spec.Switches
	}
	for i := 0; i < spec.EPGs; i++ {
		nEPs := 1 + rng.Intn(maxEPs)
		nSw := 1 + rng.Intn(maxSw)
		if nSw > nEPs {
			nSw = nEPs
		}
		swChoices := rng.Perm(spec.Switches)[:nSw]
		for e := 0; e < nEPs; e++ {
			sw := object.ID(1 + swChoices[e%nSw])
			p.AddEndpoint(policy.Endpoint{
				ID:     epID,
				Name:   fmt.Sprintf("ep-%d-%d", i, e),
				EPG:    object.ID(1000 + i),
				Switch: sw,
			})
			epID++
		}
	}

	// Bindings: contract usage is bimodal (most contracts small, a few
	// heavy), endpoint EPGs sampled with Zipf popularity within a VRF.
	epgsByVRF := make(map[object.ID][]int)
	for i, v := range epgVRF {
		epgsByVRF[v] = append(epgsByVRF[v], i)
	}
	usages := contractUsages(rng, spec)
	epgRanks := zipfRanks(rng, spec.EPGs, spec.EPGZipfExponent)
	bound := make(map[policy.Binding]struct{})
	for ci, usage := range usages {
		contract := object.ID(3000 + ci)
		for u := 0; u < usage; u++ {
			// Pick a VRF with at least two EPGs, then two distinct EPGs.
			v := object.ID(100 + sampleWeighted(rng, weights))
			cohort := epgsByVRF[v]
			if len(cohort) < 2 {
				continue
			}
			a := cohort[epgRanks.sampleBound(rng, len(cohort))]
			b := cohort[epgRanks.sampleBound(rng, len(cohort))]
			for tries := 0; a == b && tries < 8; tries++ {
				b = cohort[epgRanks.sampleBound(rng, len(cohort))]
			}
			if a == b {
				continue
			}
			bd := policy.Binding{
				From:     object.ID(1000 + a),
				To:       object.ID(1000 + b),
				Contract: contract,
			}
			if _, dup := bound[bd]; dup {
				continue
			}
			rev := policy.Binding{From: bd.To, To: bd.From, Contract: contract}
			if _, dup := bound[rev]; dup {
				continue
			}
			bound[bd] = struct{}{}
			p.Bindings = append(p.Bindings, bd)
		}
	}

	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("workload: generated invalid policy: %w", err)
	}
	t := topo.FromPolicy(p)
	// Ensure all switches exist even if placement missed some.
	for i := 0; i < spec.Switches; i++ {
		t.AddSwitch(object.ID(1 + i))
	}
	return p, t, nil
}

// contractUsages distributes spec.TargetPairs binding slots over the
// contracts: (1-HeavyContractFrac) of contracts get 1-9 pairs, the rest
// share the remainder with a Pareto-ish tail.
func contractUsages(rng *rand.Rand, spec Spec) []int {
	usages := make([]int, spec.Contracts)
	heavy := int(float64(spec.Contracts) * spec.HeavyContractFrac)
	if heavy < 1 {
		heavy = 1
	}
	small := spec.Contracts - heavy
	total := 0
	for i := 0; i < small; i++ {
		usages[i] = 1 + rng.Intn(9)
		total += usages[i]
	}
	remaining := spec.TargetPairs - total
	if remaining < heavy {
		remaining = heavy
	}
	// Pareto weights for heavy contracts.
	wts := make([]float64, heavy)
	sum := 0.0
	for i := range wts {
		wts[i] = math.Pow(rng.Float64()+0.01, -0.7)
		sum += wts[i]
	}
	for i := 0; i < heavy; i++ {
		usages[small+i] = 1 + int(float64(remaining)*wts[i]/sum)
	}
	rng.Shuffle(len(usages), func(i, j int) { usages[i], usages[j] = usages[j], usages[i] })
	return usages
}

func normalizeWeights(w []float64, n int) []float64 {
	out := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		if i < len(w) && w[i] > 0 {
			out[i] = w[i]
		} else {
			out[i] = 0.01
		}
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func sampleWeighted(rng *rand.Rand, weights []float64) int {
	x := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// zipfPicker samples indices 0..n-1 with probability ∝ 1/(rank+1)^s under
// a random permutation (so popular items are spread across the ID space).
type zipfPicker struct {
	perm []int
	cdf  []float64
}

func zipfRanks(rng *rand.Rand, n int, s float64) *zipfPicker {
	z := &zipfPicker{perm: rng.Perm(n), cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipfPicker) sample(rng *rand.Rand) int {
	return z.perm[z.searchCDF(rng.Float64(), len(z.cdf))]
}

// sampleBound samples a rank restricted to the first bound ranks (used
// when choosing within a smaller cohort).
func (z *zipfPicker) sampleBound(rng *rand.Rand, bound int) int {
	if bound > len(z.cdf) {
		bound = len(z.cdf)
	}
	limit := z.cdf[bound-1]
	return z.searchCDF(rng.Float64()*limit, bound) % bound
}

func (z *zipfPicker) searchCDF(x float64, bound int) int {
	lo, hi := 0, bound-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
