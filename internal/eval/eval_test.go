package eval

import "testing"

func TestSimSpecScaling(t *testing.T) {
	full := SimSpec(1)
	if full.EPGs != 615 {
		t.Errorf("full scale EPGs = %d", full.EPGs)
	}
	half := SimSpec(0.5)
	if half.EPGs >= full.EPGs || half.TargetPairs >= full.TargetPairs {
		t.Error("scaled spec must shrink")
	}
	if tiny := SimSpec(0.0001); tiny.EPGs < 2 {
		t.Error("scaling must clamp to a usable floor")
	}
}

func TestFractionAboveAndPercentile(t *testing.T) {
	s := []int{1, 2, 3, 10, 100}
	if got := FractionAbove(s, 3); got != 0.4 {
		t.Errorf("FractionAbove(3) = %v, want 0.4", got)
	}
	if got := FractionAbove(s, 1000); got != 0 {
		t.Errorf("FractionAbove(1000) = %v", got)
	}
	if got := FractionAbove(nil, 1); got != 0 {
		t.Errorf("FractionAbove(nil) = %v", got)
	}
	if Percentile(s, 0) != 1 || Percentile(s, 100) != 100 {
		t.Error("percentile endpoints wrong")
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile must be 0")
	}
}
