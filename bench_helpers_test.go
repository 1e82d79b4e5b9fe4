package scout_test

import (
	"math/rand"
	"testing"

	"scout/internal/equiv"
	"scout/internal/oracle"
	"scout/internal/rule"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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
