package localize

// Property-style regression for the overlay/clone interchangeability
// contract: every localization algorithm must return identical Results
// (and suspect sets) whether the fault scenario was applied to a second build of
// the pristine controller model (the builders are deterministic) or to a
// copy-on-write overlay over the pristine core. The scenarios come from
// internal/workload's fault generator — full and partial object faults
// with change-log noise, the paper's §VI-A regime.

import (
	"math/rand"
	"reflect"
	"testing"

	"scout/internal/compile"
	"scout/internal/object"
	"scout/internal/risk"
	"scout/internal/workload"
)

func interchangeEnv(t *testing.T) (*compile.Deployment, *workload.DepIndex) {
	t.Helper()
	pol, tp, err := workload.Generate(workload.SmallFabricSpec(), 7)
	if err != nil {
		t.Fatal(err)
	}
	d, err := compile.Compile(pol, tp)
	if err != nil {
		t.Fatal(err)
	}
	return d, workload.BuildIndex(d)
}

func TestOverlayCloneInterchangeable(t *testing.T) {
	d, idx := interchangeEnv(t)
	pristine := risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
	candidates := idx.Objects()

	runs := 0
	for seed := int64(1); seed <= 5; seed++ {
		for faults := 1; faults <= 6; faults++ {
			// Two rng streams with identical state: fault selection inside
			// ApplyToControllerModel consumes randomness, so each
			// application needs its own stream to stay aligned.
			scRng := rand.New(rand.NewSource(seed))
			sc, err := workload.NewScenario(scRng, candidates, faults, 5)
			if err != nil {
				t.Fatal(err)
			}
			cloneRng := rand.New(rand.NewSource(seed * 1000))
			overlayRng := rand.New(rand.NewSource(seed * 1000))

			clone := risk.BuildControllerModel(d, risk.ControllerModelOptions{IncludeSwitchRisk: true})
			workload.ApplyToControllerModel(clone, d, idx, sc, cloneRng)
			ov := risk.NewOverlay(pristine)
			workload.ApplyToControllerModel(ov, d, idx, sc, overlayRng)

			if clone.NumFailedEdges() == 0 {
				continue // scenario hit only undeployed objects
			}
			runs++

			oracle := SetOracle(sc.Changed)
			cScout, oScout := Scout(clone, oracle), Scout(ov, oracle)
			if !reflect.DeepEqual(cScout, oScout) {
				t.Fatalf("seed=%d faults=%d: Scout differs\nclone:   %+v\noverlay: %+v",
					seed, faults, cScout, oScout)
			}
			for _, threshold := range []float64{0.6, 1.0} {
				if c, o := Score(clone, threshold), Score(ov, threshold); !reflect.DeepEqual(c, o) {
					t.Fatalf("seed=%d faults=%d: Score(%.1f) differs", seed, faults, threshold)
				}
			}
		}
	}
	if runs == 0 {
		t.Fatal("no scenario produced failures; property was never exercised")
	}
	if pristine.NumFailedEdges() != 0 {
		t.Fatal("overlay runs mutated the pristine core")
	}
}

// TestOverlayCloneInterchangeableSwitchModel covers the switch-model
// variant of the same property.
func TestOverlayCloneInterchangeableSwitchModel(t *testing.T) {
	d, idx := interchangeEnv(t)
	// Pick the busiest switch so faults actually land.
	var sw object.ID
	best := -1
	for s := range d.BySwitch {
		if n := len(d.BySwitch[s]); n > best {
			sw, best = s, n
		}
	}
	pristine := risk.BuildSwitchModel(d, sw)
	candidates := idx.ObjectsOnSwitch(sw)

	runs := 0
	for seed := int64(1); seed <= 5; seed++ {
		scRng := rand.New(rand.NewSource(seed))
		sc, err := workload.NewScenario(scRng, candidates, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		cloneRng := rand.New(rand.NewSource(seed))
		overlayRng := rand.New(rand.NewSource(seed))

		clone := risk.BuildSwitchModel(d, sw)
		workload.ApplyToSwitchModel(clone, d, idx, sw, sc, cloneRng)
		ov := risk.NewOverlay(pristine)
		workload.ApplyToSwitchModel(ov, d, idx, sw, sc, overlayRng)
		if clone.NumFailedEdges() == 0 {
			continue
		}
		runs++
		if c, o := Scout(clone, NoChanges{}), Scout(ov, NoChanges{}); !reflect.DeepEqual(c, o) {
			t.Fatalf("seed=%d: switch-model Scout differs", seed)
		}
	}
	if runs == 0 {
		t.Fatal("no switch scenario produced failures")
	}
}
