// MaxCoverage: the unconstrained greedy set-cover baseline the paper's
// §IV-A sketches ("finding a minimal set of policy objects that covers
// risk models ... known to be NP-complete"). Unlike SCORE it applies no
// hit-ratio filter at all: any risk with failed edges is eligible, picked
// purely by residual coverage. It maximizes recall on the failure
// signature but implicates heavily-shared objects (VRFs, popular EPGs)
// whose hit ratios are tiny, so its precision collapses — the motivation
// for SCOUT's hit-ratio stage.

package localize

import (
	"scout/internal/risk"
)

// MaxCoverage runs plain greedy set cover over the failed edges of the
// annotated model: repeatedly pick the risk explaining the most
// still-unexplained observations until everything is explained.
func MaxCoverage(m risk.View) *Result {
	p, o := planFor(m)
	return planMaxCoverage(p, o)
}
