package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/progen"
	"repro/internal/vm"
)

// shape is a progen program shape: statement count and nesting depth,
// with the band of CFG node counts the benchmark accepts for it (about the
// middle half of the shape's programs; the middle quarter for medium, where
// both workloads' p50 latencies fall), so throughput and latency measure
// the code rather than which programs a seed happened to draw.
type shape struct {
	name               string
	size, depth        int
	minNodes, maxNodes int
}

var (
	small  = shape{"small", 20, 2, 103, 132}
	medium = shape{"medium", 80, 3, 515, 565}
	large  = shape{"large", 240, 4, 1850, 2100}
)

// drawProgram draws programs of shape sh from rng until one has a node
// count in the shape's band and, when maxSteps > 0, mean steps per run on
// the bytecode VM within [minSteps, maxSteps].
func drawProgram(rng *rand.Rand, sh shape, minSteps, maxSteps float64) (string, error) {
	for i := 0; i < 1000; i++ {
		src := progen.Generate(rng.Uint64(), sh.size, sh.depth)
		res, err := lowerSource(src)
		if err != nil {
			return "", err
		}
		nodes := 0
		for _, p := range res.Procs {
			nodes += len(p.G.Nodes())
		}
		if nodes < sh.minNodes || nodes > sh.maxNodes {
			continue
		}
		if maxSteps <= 0 {
			return src, nil
		}
		steps, err := meanSteps(res)
		if err != nil {
			return "", err
		}
		if steps >= minSteps && steps <= maxSteps {
			return src, nil
		}
	}
	return "", fmt.Errorf("no %s program in the bands after 1000 candidates", sh.name)
}

func lowerSource(src string) (*lower.Result, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	return lower.Lower(prog)
}

// meanSteps is a program's mean step count over eight VM runs.
func meanSteps(res *lower.Result) (float64, error) {
	code, err := vm.Compile(res)
	if err != nil {
		return 0, err
	}
	steps := 0.0
	for s := uint64(1); s <= 8; s++ {
		run, err := code.Run(interp.Options{Seed: s})
		if err != nil {
			return 0, err
		}
		steps += float64(run.Steps) / 8
	}
	return steps, nil
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// blockRate is the median over consecutive blocks of n operations of the
// block's work per second; a partial last block counts only when there is
// no full one. The median keeps a burst of host contention from moving the
// rate the way a total over the whole window would.
func blockRate(work, ms []float64, n int) float64 {
	var rates []float64
	for i := 0; i < len(ms); i += n {
		j := min(i+n, len(ms))
		if j-i < n && len(rates) > 0 {
			break
		}
		if t := sum(ms[i:j]); t > 0 {
			rates = append(rates, sum(work[i:j])/(t/1000))
		}
	}
	return quantile(rates, 0.5)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// div is a/b, or 0 when a run has no work to divide by (every operation
// failed), so the result line stays valid JSON.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// allocBytes reads the process's monotone total of heap bytes allocated.
// The runtime/metrics read is cheap and does not stop the world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// near reports whether got equals want to a relative 1e-9, the tolerance
// the oracle's invariants use for floating-point estimates.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// sameProfile reports the first condition whose total differs between two
// recovered profiles (want is skewed by c.want), or nil when they match.
func sameProfile(c *config, got, want map[string]freq.Totals) error {
	if len(got) != len(want) {
		return fmt.Errorf("profiles cover %d vs %d procedures", len(got), len(want))
	}
	for _, name := range sortedKeys(want) {
		g, w := got[name], want[name]
		if len(g) != len(w) {
			return fmt.Errorf("%s: %d vs %d conditions", name, len(g), len(w))
		}
		for cond, v := range w {
			if g[cond] != c.want(v) {
				return fmt.Errorf("%s %v: total %v, want %v", name, cond, g[cond], c.want(v))
			}
		}
	}
	return nil
}

// calibrate times a fixed pure-Go kernel (sorting and hashing 2^18 LCG
// values, three times, median) so host drift can be told apart from code
// changes. It never touches the repository's code.
func calibrate() float64 {
	var runs []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		xs := make([]uint64, 1<<18)
		s := uint64(88172645463325252)
		for i := range xs {
			s = s*6364136223846793005 + 1442695040888963407
			xs[i] = s
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		h := uint64(14695981039346656037)
		for _, x := range xs {
			h = (h ^ x) * 1099511628211
		}
		if h == 0 {
			fmt.Fprintln(os.Stderr, "perfbench: calibration hash is zero")
		}
		runs = append(runs, msSince(t0))
	}
	return quantile(runs, 0.5)
}

// timeSetup runs setup reps times (at least once), each from a collected
// heap, and returns the median wall time in seconds. The caller keeps the
// last repetition's state.
func timeSetup(reps int, setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < max(1, reps); i++ {
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return quantile(secs, 0.5), nil
}

// parallel runs f(0..n-1) on up to workers goroutines and returns the
// first error by index.
func parallel(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// logSlope is the least-squares slope of log(y) on log(x): 1 for linear
// scaling, 2 for quadratic.
func logSlope(xs, ys []float64) float64 {
	var n, sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		x, y := math.Log(xs[i]), math.Log(ys[i])
		n++
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	if d := n*sxx - sx*sx; n >= 2 && d != 0 {
		return (n*sxy - sx*sy) / d
	}
	return 0
}

// checkFigure1 runs the paper's example (examples/figure1.f) through the
// pipeline with the paper's COST assignment (IF = 1, CALL = 100, all else
// 0) and checks TIME(START) = 920 and STD_DEV(START) = 300.
func checkFigure1(c *config) error {
	src, err := os.ReadFile(filepath.Join(c.root, "examples", "figure1.f"))
	if err != nil {
		return err
	}
	p, err := core.LoadOpts(string(src), core.LoadOptions{Workers: c.nproc, Engine: interp.EngineTree, Plan: core.StrategySarkar})
	if err != nil {
		return fmt.Errorf("figure1: %w", err)
	}
	prof, _, err := p.Profile(interp.Options{}, 1)
	if err != nil {
		return fmt.Errorf("figure1: %w", err)
	}
	a := p.An.Procs["EXMPL"]
	if a == nil {
		return fmt.Errorf("figure1: no procedure EXMPL")
	}
	costs := cost.NewTable(a.P.G.MaxID())
	for id, s := range a.P.Stmt {
		switch {
		case strings.HasPrefix(s.Text(), "IF"):
			costs[id] = 1
		case strings.HasPrefix(s.Text(), "CALL"):
			costs[id] = 100
		}
	}
	est, err := core.EstimateProgram(p.An, map[string]freq.Totals(prof),
		map[string]cost.Table{"EXMPL": costs, "FOO": nil}, core.Options{})
	if err != nil {
		return fmt.Errorf("figure1: %w", err)
	}
	got := est.Procs["EXMPL"]
	if !near(got.Time, c.want(920)) || !near(got.StdDev(), c.want(300)) {
		return fmt.Errorf("figure1: TIME(START)=%g STD_DEV(START)=%g, want %g and %g",
			got.Time, got.StdDev(), c.want(920), c.want(300))
	}
	return nil
}
