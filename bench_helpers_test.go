package scout_test

import (
	"math/rand"
	"testing"

	"scout"
	"scout/internal/compile"
	"scout/internal/equiv"
	"scout/internal/eval"
	"scout/internal/oracle"
	"scout/internal/rule"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func compileEnv(env *eval.Env) (*compile.Deployment, error) {
	return compile.Compile(env.Policy, env.Topo)
}

// threeTierPolicy builds the paper's Figure 1 example through the public
// API.
func threeTierPolicy() *scout.Policy {
	p := scout.NewPolicy("three-tier")
	p.AddVRF(scout.VRF{ID: 101, Name: "vrf-101"})
	p.AddEPG(scout.EPG{ID: 1, Name: "Web", VRF: 101})
	p.AddEPG(scout.EPG{ID: 2, Name: "App", VRF: 101})
	p.AddEPG(scout.EPG{ID: 3, Name: "DB", VRF: 101})
	p.AddEndpoint(scout.Endpoint{ID: 11, Name: "EP1", EPG: 1, Switch: 1})
	p.AddEndpoint(scout.Endpoint{ID: 12, Name: "EP2", EPG: 2, Switch: 2})
	p.AddEndpoint(scout.Endpoint{ID: 13, Name: "EP3", EPG: 3, Switch: 3})
	p.AddFilter(scout.Filter{ID: 80, Name: "port-80", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 80),
	}})
	p.AddFilter(scout.Filter{ID: 700, Name: "port-700", Entries: []scout.FilterEntry{
		scout.PortEntry(scout.ProtoTCP, 700),
	}})
	p.AddContract(scout.Contract{ID: 201, Name: "Web-App", Filters: []scout.ObjectID{80}})
	p.AddContract(scout.Contract{ID: 202, Name: "App-DB", Filters: []scout.ObjectID{80, 700}})
	p.Bind(1, 2, 201)
	p.Bind(2, 3, 202)
	return p
}

// benchEquiv measures one L-T check of the busiest switch's rules against
// a degraded copy (5% of rules removed).
func benchEquiv(b *testing.B, naive bool) {
	b.Helper()
	env := benchEnv(b)

	// Busiest switch by rule count.
	var logical []rule.Rule
	for _, sw := range env.Topo.Switches() {
		if rules := env.Deployment.RulesFor(sw); len(rules) > len(logical) {
			logical = rules
		}
	}
	if len(logical) == 0 {
		b.Fatal("no rules")
	}
	rng := newRand(3)
	deployed := make([]rule.Rule, 0, len(logical))
	for _, r := range logical {
		if !r.IsDefaultDeny() && rng.Intn(20) == 0 {
			continue // ~5% missing
		}
		deployed = append(deployed, r)
	}
	b.ReportMetric(float64(len(logical)), "rules")

	b.ResetTimer()
	if naive {
		for i := 0; i < b.N; i++ {
			if missing, extra := oracle.NaiveCheck(logical, deployed); len(missing)+len(extra) == 0 {
				b.Fatal("degraded copy must differ")
			}
		}
		return
	}
	for i := 0; i < b.N; i++ {
		checker := equiv.NewChecker()
		rep, err := checker.Check(logical, deployed)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Equivalent {
			b.Fatal("degraded copy must differ")
		}
	}
}
