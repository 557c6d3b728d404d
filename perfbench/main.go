// Command perfbench is the repository's benchmark: one command that runs a
// workload for a fixed wall-clock window, checks every output, and prints
// the metrics named in BENCHMARK.json. The unit of work it measures is the
// paper's: analyze a program, place counters, profile it and estimate
// TIME/VAR.
//
// Three workloads load different layers (see README.md for the layer and
// coverage matrix):
//
//   - analyze-cold: cold load, plan and 1-seed tree-walker estimate of a
//     2:2:1 small:medium:large draw of generated programs.
//   - profile-batch: 64-seed vm-batch estimates of one large program,
//     alternating the Sarkar and Ball–Larus pipelines.
//   - service-mix: closed-loop clients against the in-process analysis
//     service with a Zipf-skewed working set and an on-disk artifact store.
//
// With --trace 0 the last line of standard output is the end-to-end
// result; with --trace 1 the command runs the separate traced pass of every
// workload, timing calls into each layer's public functions from this
// package, and the last line carries the per-layer metrics. The line before
// it is a JSON report with the workload-specific metric names, sample
// counts, the failure ratio, the host calibration times and, when traced,
// the tracing overhead and the layer-to-end-to-end map.
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 20 --trace 0
//
// The exit status is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// config is one invocation's settings. The sizing fields default to the
// benchmark's shipped shape; the benchmark's own test shrinks them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// root is the repository root (examples/figure1.f is read from it) and
	// workdir the scratch directory for artifact stores.
	root, workdir string
	// nproc sizes pipeline workers, service clients and service workers.
	nproc int
	// setupReps, when positive, overrides how many times each workload's
	// setup runs; setup_s is their median.
	setupReps int
	// workingSet is service-mix's W: the number of distinct programs the
	// Zipf draw picks from. The service LRU holds W/4 of them.
	workingSet int
	// traceOps sizes each traced pass: analyze-cold programs, profile-batch
	// batch pairs, and service-mix requests per client (×30).
	traceOps int
	// wrongBy skews every expected value by this relative amount. Real runs
	// leave it at 0; the benchmark's test sets it to prove each check fails.
	wrongBy float64
}

// reps is the number of setup repetitions: the workload's default unless
// setupReps overrides it.
func (c *config) reps(def int) int {
	if c.setupReps > 0 {
		return c.setupReps
	}
	return def
}

// want is an expected value as the checks see it.
func (c *config) want(v float64) float64 { return v * (1 + c.wrongBy) }

// workload is one named input family with its timed and traced runs.
type workload struct {
	name   string
	timed  func(*config, *outcome) error
	traced func(*config, *outcome) error
}

var workloads = []workload{
	{"analyze-cold", analyzeCold, analyzeColdTraced},
	{"profile-batch", profileBatch, profileBatchTraced},
	{"service-mix", serviceMix, serviceMixTraced},
}

func main() {
	c := &config{root: ".", nproc: runtime.NumCPU(), workingSet: 64, traceOps: 10}
	flag.StringVar(&c.workload, "workload", "", "analyze-cold|profile-batch|service-mix")
	flag.Uint64Var(&c.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed window")
	flag.StringVar(&c.workdir, "workdir", ".bench_build/work", "scratch directory for artifact stores")
	flag.Parse()
	c.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if findWorkload(c.workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", c.workload)
		os.Exit(2)
	}
	rep, res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	printJSON(rep)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is the line before the result: what the result line cannot
// carry.
type runReport struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Trace     bool    `json:"trace"`
	Nproc     int     `json:"nproc"`
	FailRatio float64 `json:"fail_ratio"`
	// CalibMs is the host calibration kernel's time at the start and the
	// end of the run: host drift, not code change, moves it.
	CalibMs [2]float64 `json:"host.calib_ms"`
	// Named holds the workload's metrics under their workload-specific
	// names, with sample counts.
	Named map[string]named `json:"named,omitempty"`
	// Layers is the traced run's layer map with the measured values.
	Layers []layerRow `json:"layers,omitempty"`
	Errors []string   `json:"errors,omitempty"`
}

// run executes the configured workload (or, traced, every workload's traced
// pass) between two calibration timings. An error means the benchmark could
// not run at all; failed checks are counted in the outcome instead.
func run(c *config) (*runReport, *result, error) {
	if err := os.MkdirAll(c.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	o := newOutcome()
	rep := &runReport{Workload: c.workload, Seed: c.seed, Trace: c.trace, Nproc: c.nproc}
	rep.CalibMs[0] = calibrate()
	if c.trace {
		for _, w := range workloads {
			if err := w.traced(c, o); err != nil {
				return nil, nil, fmt.Errorf("%s traced: %w", w.name, err)
			}
		}
		rep.Layers = layerRows(o.metrics)
	} else if err := findWorkload(c.workload).timed(c, o); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", c.workload, err)
	}
	rep.CalibMs[1] = calibrate()
	if o.attempted > 0 {
		rep.FailRatio = float64(o.failed) / float64(o.attempted)
	}
	rep.Named = o.named
	rep.Errors = o.errs
	res := &result{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   o.metrics,
	}
	return rep, res, nil
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named is one workload-specific metric of the report line.
type named struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// outcome accumulates one run's operations, check failures and metrics.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	named             map[string]named
}

func newOutcome() *outcome {
	return &outcome{metrics: make(map[string]metric), named: make(map[string]named)}
}

// op records one attempted operation; err is its error or failed check.
// It reports whether the operation succeeded.
func (o *outcome) op(err error) bool {
	o.attempted++
	if err == nil {
		return true
	}
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, err.Error())
	}
	return false
}

func (o *outcome) set(name string, v float64, unit string) {
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) name(n string, v float64, unit string, samples int) {
	o.named[n] = named{Value: v, Unit: unit, Samples: samples}
}

// endToEnd sets the five shared end-to-end metrics every workload reports:
// the median set-up time, work units per second, the per-operation p50 and
// tail latency, and heap bytes per work unit.
func (o *outcome) endToEnd(setupS, workPerS, p50, tail, allocPerWork float64) {
	o.set("setup_s", setupS, "s")
	o.set("work_per_s", workPerS, "1/s")
	o.set("op_ms_p50", p50, "ms")
	o.set("op_ms_tail", tail, "ms")
	o.set("alloc_bytes_per_work", allocPerWork, "B")
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
}

// sortedKeys returns m's keys in order, so every pass visits procedures
// deterministically.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
