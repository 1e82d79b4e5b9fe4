package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metric is one measured value. N is the number of samples it summarises
// (0 for a gauge read once).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string, n int) {
	m[name] = metric{Value: value, Unit: unit, N: n}
}

// runRecord is what one child process measured: one workload, one seed,
// traced or not. It is the unit of -out files and of -compare.
type runRecord struct {
	Workload    string    `json:"workload"`
	Traced      bool      `json:"traced"`
	Seed        int64     `json:"seed"`
	Ops         int       `json:"ops"`
	Warmup      int       `json:"warmup"`
	InputDigest string    `json:"input_digest"`
	Correct     bool      `json:"correct"`
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	Failures    []string  `json:"failures,omitempty"`
	Metrics     metrics   `json:"metrics"`
	Spans       []spanRow `json:"spans,omitempty"`
}

// resultFile is the schema of -out files and of bench/baseline/*.json.
type resultFile struct {
	Schema int         `json:"schema"`
	Env    environment `json:"env"`
	Runs   []runRecord `json:"runs"`
}

type environment struct {
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Seed       int64          `json:"seed"`
	Runs       int            `json:"runs_per_workload"`
	Ops        map[string]int `json:"ops"`
	Warmup     map[string]int `json:"warmup"`
}

// metricSpec is one entry of BENCHMARK.json's end_to_end or per_layer
// list. Bound is absent (zero) on per-layer metrics.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkSpec is the part of BENCHMARK.json the harness reads: it is
// the single place metric names, directions and bounds are fixed.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics listed", path)
	}
	return &spec, nil
}

// contractLine renders the one-line JSON result the benchmark contract
// asks for: exactly the listed metrics, each with exactly value and unit.
// It is an error for the run to lack a listed metric.
func contractLine(rec *runRecord, listed []metricSpec) (string, error) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]valueUnit{}}
	for _, spec := range listed {
		m, ok := rec.Metrics[spec.Name]
		if !ok {
			return "", fmt.Errorf("workload %s did not report %s", rec.Workload, spec.Name)
		}
		out.Metrics[spec.Name] = valueUnit{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}
