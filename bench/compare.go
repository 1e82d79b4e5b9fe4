package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs recorded", path)
	}
	return &file, nil
}

// runKey identifies the runs of two files that measured the same thing.
type runKey struct {
	workload string
	traced   bool
}

func (k runKey) String() string {
	if k.traced {
		return k.workload + " (traced)"
	}
	return k.workload
}

func groupRuns(file *resultFile) map[runKey][]runRecord {
	groups := map[runKey][]runRecord{}
	for _, rec := range file.Runs {
		k := runKey{rec.Workload, rec.Traced}
		groups[k] = append(groups[k], rec)
	}
	return groups
}

// sameWork reports why two groups of runs cannot be compared: they must
// have analysed the same inputs (the same seeds, each with the same
// digest) for the same number of ops.
func sameWork(a, b []runRecord) error {
	type work struct {
		digest      string
		ops, warmup int
	}
	bySeed := func(recs []runRecord) map[int64]work {
		m := map[int64]work{}
		for _, r := range recs {
			m[r.Seed] = work{r.InputDigest, r.Ops, r.Warmup}
		}
		return m
	}
	wa, wb := bySeed(a), bySeed(b)
	if len(wa) != len(wb) {
		return fmt.Errorf("%d seeds against %d", len(wa), len(wb))
	}
	for seed, x := range wa {
		y, ok := wb[seed]
		switch {
		case !ok:
			return fmt.Errorf("seed %d is in one file only", seed)
		case x.digest != y.digest:
			return fmt.Errorf("seed %d: input digest %s against %s", seed, x.digest, y.digest)
		case x.ops != y.ops || x.warmup != y.warmup:
			return fmt.Errorf("seed %d: %d+%d ops against %d+%d", seed, x.ops, x.warmup, y.ops, y.warmup)
		}
	}
	return nil
}

// values returns the named metric of every run, and whether every run
// has it.
func values(recs []runRecord, name string) (xs []float64, complete bool) {
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs, len(xs) == len(recs)
}

// verdict judges one end-to-end metric between two sets of runs by the
// rule the metric guides state: worse by more than the bound is a
// regression. Where either side's own run-to-run spread exceeds the bound
// the medians decide nothing, and the answer is unresolved, not
// unchanged, unless the runs themselves are apart: every new run better
// than every old one, or every new run worse than every old one by more
// than the bound.
func verdict(spec metricSpec, old, cur []float64) string {
	sign := 1.0 // worse(o, c) > 0 when c is worse than o, as a share of o
	if spec.Better == "higher" {
		sign = -1
	}
	worse := func(o, c float64) float64 { return sign * ratio(c-o, o) }
	if quartileSpread(old) > spec.Bound || quartileSpread(cur) > spec.Bound {
		allBetter, allWorse := true, true
		for _, o := range old {
			for _, c := range cur {
				allBetter = allBetter && worse(o, c) < 0
				allWorse = allWorse && worse(o, c) > spec.Bound
			}
		}
		switch {
		case allBetter:
			return "improved"
		case allWorse:
			return "REGRESSED"
		}
		return "unresolved"
	}
	switch w := worse(median(old), median(cur)); {
	case w > spec.Bound:
		return "REGRESSED"
	case w < -spec.Bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles applies BENCHMARK.json's bounds to two result files, per
// workload and metric, and reports whether the new file regressed: an
// end-to-end metric worse by more than its bound, more failed ops than
// the old file had, or a run whose output checks did not hold. Per-layer
// metrics have no bound and are listed for reading. Files that did not
// measure the same workloads, inputs, op counts and metrics are refused.
func compareFiles(oldPath, newPath, specPath string, w io.Writer) (regressed bool, err error) {
	spec, err := loadBenchmarkSpec(specPath)
	if err != nil {
		return false, err
	}
	oldFile, err := loadResults(oldPath)
	if err != nil {
		return false, err
	}
	newFile, err := loadResults(newPath)
	if err != nil {
		return false, err
	}
	oldRuns, newRuns := groupRuns(oldFile), groupRuns(newFile)
	var keys []runKey
	for k := range oldRuns {
		if _, ok := newRuns[k]; !ok {
			return false, fmt.Errorf("refusing to compare: %s has no runs of %s", newPath, k)
		}
		keys = append(keys, k)
	}
	for k := range newRuns {
		if _, ok := oldRuns[k]; !ok {
			return false, fmt.Errorf("refusing to compare: %s has no runs of %s", oldPath, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].traced != keys[j].traced {
			return !keys[i].traced
		}
		return keys[i].workload < keys[j].workload
	})
	for _, k := range keys {
		if err := sameWork(oldRuns[k], newRuns[k]); err != nil {
			return false, fmt.Errorf("refusing to compare %s: %w", k, err)
		}
	}

	fmt.Fprintf(w, "%-13s %-34s %14s %14s %9s %8s %8s  %s\n",
		"workload", "metric", "old median", "new median", "change", "spread", "bound", "verdict")
	for _, k := range keys {
		old, cur := oldRuns[k], newRuns[k]
		row := func(ms metricSpec, ov, cv []float64, bound, status string) {
			spread := quartileSpread(ov)
			if s := quartileSpread(cv); s > spread {
				spread = s
			}
			fmt.Fprintf(w, "%-13s %-34s %14.4f %14.4f %+8.1f%% %7.1f%% %8s  %s\n", k.workload, ms.Name,
				median(ov), median(cv), ratio(median(cv)-median(ov), median(ov))*100, spread*100, bound, status)
		}
		if !k.traced {
			for _, ms := range spec.EndToEnd {
				ov, okOld := values(old, ms.Name)
				cv, okNew := values(cur, ms.Name)
				if !okOld || !okNew {
					return false, fmt.Errorf("refusing to compare %s: not every run reports %s", k, ms.Name)
				}
				status := verdict(ms, ov, cv)
				regressed = regressed || status == "REGRESSED"
				row(ms, ov, cv, fmt.Sprintf("%.4g%%", ms.Bound*100), status)
			}
		}
		// Per layer: every listed metric in a traced run, in an untraced run
		// the few it also records at the real worker count.
		for _, ms := range spec.PerLayer {
			ov, okOld := values(old, ms.Name)
			cv, okNew := values(cur, ms.Name)
			if !k.traced && len(ov) == 0 && len(cv) == 0 {
				continue
			}
			if !okOld || !okNew {
				return false, fmt.Errorf("refusing to compare %s: not every run reports %s", k, ms.Name)
			}
			row(ms, ov, cv, "-", "")
		}

		// Failed ops count against the new file whatever the metrics say.
		oldFailed, newFailed, incorrect := 0, 0, 0
		for _, r := range old {
			oldFailed += r.Failed
		}
		for _, r := range cur {
			newFailed += r.Failed
			if !r.Correct {
				incorrect++
			}
		}
		if incorrect > 0 || newFailed > oldFailed {
			regressed = true
			fmt.Fprintf(w, "%-13s REGRESSED: %d failed ops in %d incorrect runs (old file: %d failed ops)\n",
				k, newFailed, incorrect, oldFailed)
		}
	}
	return regressed, nil
}
