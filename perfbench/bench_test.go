package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
)

// spec is the part of BENCHMARK.json the test checks emitted metrics
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	s := &spec{}
	if err := json.Unmarshal(b, s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tiny is a pass of one workload small enough for a test: a short window,
// one setup, a four-program working set and two operations per traced
// pass.
func tiny(t *testing.T, workload string, trace bool) *config {
	return &config{
		workload: workload, seed: 3, seconds: 0.2, trace: trace,
		root: "..", workdir: t.TempDir(), nproc: runtime.NumCPU(),
		setupReps: 1, workingSet: 4, traceOps: 2,
	}
}

// emitsExactly checks that a result carries every metric in want with its
// unit, and nothing else.
func emitsExactly(t *testing.T, res *result, want []specMetric) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d: %v", len(res.Metrics), len(want), res.Metrics)
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEndToEndMetrics(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if findWorkload(w.Name) == nil {
				t.Fatalf("BENCHMARK.json workload %s is not implemented", w.Name)
			}
			rep, res, err := run(tiny(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, rep.Errors)
			}
			emitsExactly(t, res, s.EndToEnd)
			for name, m := range rep.Named {
				if m.Unit == "" || m.Samples < 1 {
					t.Errorf("named metric %s: unit %q, %d samples", name, m.Unit, m.Samples)
				}
			}
		})
	}
}

func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	s := loadSpec(t)
	rep, res, err := run(tiny(t, "analyze-cold", true))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d: %v", res.Correct, res.Failed, rep.Errors)
	}
	emitsExactly(t, res, s.PerLayer)
	if len(rep.Layers) != len(s.PerLayer) {
		t.Errorf("layer map has %d rows, BENCHMARK.json names %d per-layer metrics", len(rep.Layers), len(s.PerLayer))
	}
}

// TestChecksFailOnWrongExpectedValues skews every expected value by 50%:
// each workload must then fail every operation it attempted, so no check
// passes without comparing.
func TestChecksFailOnWrongExpectedValues(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			c := tiny(t, w.name, false)
			c.wrongBy = 0.5
			_, res, err := run(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
				t.Errorf("correct=%v attempted=%d failed=%d, want every operation failed",
					res.Correct, res.Attempted, res.Failed)
			}
		})
	}
	t.Run("figure1", func(t *testing.T) {
		c := tiny(t, "analyze-cold", false)
		if err := checkFigure1(c); err != nil {
			t.Fatalf("figure1 with the paper's values: %v", err)
		}
		c.wrongBy = 0.01
		if checkFigure1(c) == nil {
			t.Error("figure1 check passed with TIME 929.2 and STD_DEV 303 expected")
		}
	})
}

func TestQuantileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}} {
		if got := quantile(xs, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	ones := []float64{1, 1, 1, 1, 1, 1, 1}
	if got := blockRate(ones, []float64{1000, 1000, 500, 500, 250, 250, 1}, 2); got != 2 {
		t.Errorf("blockRate = %v, want the median block rate 2", got)
	}
}
