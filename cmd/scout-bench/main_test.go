package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("10, 25,50")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 10 || got[1] != 25 || got[2] != 50 {
		t.Errorf("parseInts = %v, want [10 25 50]", got)
	}
	if _, err := parseInts("10,abc"); err == nil {
		t.Error("bad count must fail")
	}
}

// TestRunParallelSmoke runs the serial-vs-parallel experiment on a tiny
// workload: it exercises the full analyzer pipeline at two worker counts
// and enforces the byte-identical-report contract.
func TestRunParallelSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "parallel", scale: 0.05, seed: 3, workers: 2}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"serial", "workers=2", "speedup", "reports byte-identical: true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunIncrementalSmoke runs the session experiment on a tiny workload:
// a cold session run, a one-switch touch, a warm delta run, and the
// byte-identical replay contract against the cold analyzer.
func TestRunIncrementalSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "incremental", scale: 0.05, seed: 3, workers: 2}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"cold session run", "warm delta run (1/", "speedup", "reports byte-identical: true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunScaleSmoke runs the scalability sweep at a toy switch count, the
// cheapest experiment that still spans workload generation, compilation,
// risk-model build, and localization.
func TestRunScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation is seconds-scale")
	}
	var out bytes.Buffer
	cfg := config{experiment: "scale", scale: 0.05, seed: 3, switchList: "4"}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "Scalability") {
		t.Errorf("output missing scalability header:\n%s", out.String())
	}
}

// TestRunRejectsUnknownList guards the flag plumbing: a malformed
// -switches list must fail the scale experiment, not silently no-op.
func TestRunRejectsUnknownList(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "scale", scale: 0.05, seed: 3, switchList: "4,oops"}
	if err := run(cfg, &out); err == nil {
		t.Error("malformed -switches must error")
	}
}

// TestRunOverlaySmoke runs the immutable-core experiment on a tiny
// workload: sharded-vs-serial build identity, overlay-vs-clone setup
// cost, and the overlay/clone localization interchangeability contract.
func TestRunOverlaySmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "overlay", scale: 0.05, seed: 3, workers: 2, noise: 3}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"cold build serial", "cold build sharded", "build speedup",
		"sharded build identical to serial: true",
		"clone", "overlay",
		"overlay localization identical to clone: true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunFoldShareSmoke runs the fold-sharing experiment on a tiny
// workload: a shared base that is the same at every worker count, exactly
// one semantics build per distinct rule list, one replay per clone
// switch, and the report-identity contract against private mode.
func TestRunFoldShareSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "foldshare", scale: 0.05, seed: 3}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"base nodes", "sem frozen", "dedup replay",
		"reports byte-identical to private mode at every worker count: true",
		"one per distinct rule list",
		"base nodes, frozen roots and fold misses identical from 1 to 4 workers: true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunProbeReuseSmoke runs the probe-reuse experiment on a tiny
// workload: the exact classified+replayed partition every round, zero
// classification on clean warm rounds, batched (never fallback)
// probing, and the warm-vs-cold report identity contract.
func TestRunProbeReuseSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "probereuse", scale: 0.05, seed: 3, workers: 2}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"baseline: full probe round:",
		"clean warm round:",
		"every round: classified + replayed == switches, batch passes <= classified: true",
		"clean warm rounds classified zero switches with stationary prober counters: true",
		"warm reports byte-identical to cold probe analysis",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunStormSmoke runs the event-storm experiment on a tiny workload:
// coalescing bounds on re-check work, read-only-dirty partial
// collection, the subscribed collector's single partial epoch, and the
// streamed-vs-full report identity contract.
func TestRunStormSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "storm", scale: 0.05, seed: 3, workers: 2}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"coalesced into",
		"re-check work bounded by batches x min(S, batch):",
		"partial refreshes read only batch members, aliased the rest: true",
		"event-driven collector: 1 partial epoch,",
		"streamed report byte-identical to full AnalyzeEpoch",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBDDSpeedSmoke runs the BDD-core differential experiment on a
// tiny workload: per-switch report byte-identity against the map-backed
// reference engine, node-construction and cache-counter identity, and
// the pipeline byte-identity contract across worker counts.
func TestRunBDDSpeedSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "bddspeed", scale: 0.05, seed: 3}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"BDD nodes on both engines",
		"op cache:",
		"cold-encode wall clock",
		"reports byte-identical to the map-backed reference and across worker counts: true",
		"node-construction and cache-hit counters identical across engines and repeat sweeps: true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunWarmStoreSmoke runs the warm-store experiment on a tiny
// workload: restarted sessions must restore the persisted base and
// verdicts (zero rebuilds, zero re-checks, zero encodes) and reproduce
// the warm in-process report byte-for-byte, and a dirty restart must
// re-check exactly the mutated switch.
func TestRunWarmStoreSmoke(t *testing.T) {
	var out bytes.Buffer
	cfg := config{experiment: "warmstore", scale: 0.05, seed: 3, workers: 2}
	if err := run(cfg, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{
		"original process:",
		"restart (workers=1):",
		"restarted sessions loaded one base, rebuilt none, re-checked zero switches: true",
		"restarted sessions compiled zero rule lists: true",
		"restarted reports byte-identical to the warm in-process report at workers 1/2/NumCPU: true",
		"dirty restart re-checked exactly the mutated switch and matched a cold analysis: true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
