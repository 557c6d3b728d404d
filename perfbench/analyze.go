package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/cdg"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dataflow"
	"repro/internal/ecfg"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/interval"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/profiler"
	"repro/internal/progen"
	"repro/internal/staticfreq"
)

// coldProgram is one analyze-cold input: a generated program and the seed
// of its single profiling run.
type coldProgram struct {
	class   shape
	src     string
	runSeed uint64
}

// coldDraw yields analyze-cold's program sequence from the seed: blocks of
// five programs in the fixed 2:2:1 small:medium:large ratio, shuffled within
// each block, so every prefix of whole blocks keeps the ratio exactly.
type coldDraw struct {
	rng   *rand.Rand
	block []shape
}

func newColdDraw(seed uint64) *coldDraw {
	return &coldDraw{rng: rand.New(rand.NewPCG(seed, 0xa11a))}
}

func (d *coldDraw) next() (coldProgram, error) {
	if len(d.block) == 0 {
		d.block = []shape{small, small, medium, medium, large}
		d.rng.Shuffle(len(d.block), func(i, j int) { d.block[i], d.block[j] = d.block[j], d.block[i] })
	}
	sh := d.block[0]
	d.block = d.block[1:]
	src, err := drawProgram(d.rng, sh, 0, 0)
	return coldProgram{class: sh, src: src, runSeed: 1 + d.rng.Uint64N(1<<20)}, err
}

// coldResult is one analyze-cold operation's measurements.
type coldResult struct {
	ms    float64
	nodes int
	alloc uint64
	time  float64 // estimated TIME(START) of the main program
}

// analyzeOnce is the analyze-cold operation — what every CLI run and every
// service miss pays: a cold core.LoadOpts with no artifact cache, Plans(),
// and a 1-seed tree-walker Estimate. Its check (outside the timing) is that
// the 1-seed TIME(START) equals the measured cost of that same run.
func analyzeOnce(c *config, pr coldProgram) (coldResult, error) {
	a0 := allocBytes()
	t0 := time.Now()
	p, err := core.LoadOpts(pr.src, core.LoadOptions{Workers: c.nproc, Engine: interp.EngineTree, Plan: core.StrategySarkar})
	if err != nil {
		return coldResult{}, fmt.Errorf("%s load: %w", pr.class.name, err)
	}
	if _, err := p.Plans(); err != nil {
		return coldResult{}, fmt.Errorf("%s plan: %w", pr.class.name, err)
	}
	est, err := p.Estimate(cost.Optimized, core.Options{}, pr.runSeed)
	if err != nil {
		return coldResult{}, fmt.Errorf("%s estimate: %w", pr.class.name, err)
	}
	r := coldResult{ms: msSince(t0), alloc: allocBytes() - a0, time: est.Main.Time}
	for _, proc := range p.Res.Procs {
		r.nodes += len(proc.G.Nodes())
	}
	measured, err := p.MeasuredCost(cost.Optimized, pr.runSeed)
	if err != nil {
		return r, fmt.Errorf("%s measured cost: %w", pr.class.name, err)
	}
	if !near(r.time, c.want(measured)) {
		return r, fmt.Errorf("%s seed %d: TIME(START)=%v, measured cost %v", pr.class.name, pr.runSeed, r.time, c.want(measured))
	}
	return r, nil
}

// analyzeColdSetup is the workload's set-up: the figure-1 check and one
// warm-up operation on a fixed medium program, so lazily initialized
// runtime state is paid before the window.
func analyzeColdSetup(c *config, o *outcome) func() error {
	warm := coldProgram{class: medium, src: progen.Generate(7, medium.size, medium.depth), runSeed: 1}
	return func() error {
		o.op(checkFigure1(c))
		_, err := analyzeOnce(c, warm)
		o.op(err)
		return nil
	}
}

func analyzeCold(c *config, o *outcome) error {
	setupS, err := timeSetup(c.reps(7), analyzeColdSetup(c, o))
	if err != nil {
		return err
	}
	draw := newColdDraw(c.seed)
	var lat, nodes, alloc []float64
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		pr, err := draw.next()
		if err != nil {
			return err
		}
		// Every CLI run starts from an empty heap; so does each operation.
		runtime.GC()
		r, err := analyzeOnce(c, pr)
		if !o.op(err) && r.ms == 0 {
			continue
		}
		lat = append(lat, r.ms)
		nodes = append(nodes, float64(r.nodes))
		alloc = append(alloc, float64(r.alloc))
	}
	// Rates are medians over the draw's 2:2:1 blocks of five programs.
	rate := blockRate(nodes, lat, 5)
	o.endToEnd(setupS, rate, quantile(lat, 0.5), quantile(lat, 0.9), div(sum(alloc), sum(nodes)))
	o.name("setup_s", setupS, "s", c.reps(7))
	o.name("analyze_nodes_per_s", rate, "1/s", len(lat))
	o.name("analyze_ms_p50", quantile(lat, 0.5), "ms", len(lat))
	o.name("analyze_ms_p90", quantile(lat, 0.9), "ms", len(lat))
	o.name("analyze_alloc_bytes_per_node", div(sum(alloc), sum(nodes)), "B", len(lat))
	return nil
}

// layerClock accumulates wall time and heap allocation per layer call.
type layerClock struct {
	ms    map[string]float64
	alloc map[string]float64
}

func newLayerClock() *layerClock {
	return &layerClock{ms: make(map[string]float64), alloc: make(map[string]float64)}
}

// time runs f as one call into the named layer.
func (l *layerClock) time(name string, f func() error) error {
	a0 := allocBytes()
	t0 := time.Now()
	err := f()
	l.ms[name] += msSince(t0)
	l.alloc[name] += float64(allocBytes() - a0)
	return err
}

// layeredResult is what one decomposed analyze-cold operation reports
// beyond its layer times.
type layeredResult struct {
	time             float64 // TIME(START) of the main program
	counters, blocks float64 // Sarkar plan counters and basic blocks
}

// analysisLayers are the four per-procedure analyses. analysis.slope sums
// their times; analysis.alloc_bytes sums their allocation and that of
// parse and lower.
var analysisLayers = []string{"interval.analyze", "ecfg.build", "cdg.build", "dataflow.analyze"}

// analyzeLayered is the analyze-cold operation decomposed into direct
// calls to each layer's public function, each timed by clk: parse, lower,
// the four per-procedure analyses, planning, the tree-walker run, counter
// recovery and the estimate. The main program's TIME(START) must equal the
// pipeline's.
func analyzeLayered(pr coldProgram, clk *layerClock) (layeredResult, error) {
	var prog *lang.Program
	var res *lower.Result
	var err error
	if err = clk.time("lang.parse", func() error { prog, err = lang.Parse(pr.src); return err }); err != nil {
		return layeredResult{}, err
	}
	if err = clk.time("lower.lower", func() error { res, err = lower.Lower(prog); return err }); err != nil {
		return layeredResult{}, err
	}
	procs := make(map[string]*analysis.Proc, len(res.Procs))
	for _, name := range sortedKeys(res.Procs) {
		lp := res.Procs[name]
		a := &analysis.Proc{P: lp}
		if err = clk.time("interval.analyze", func() error { a.Intervals, err = interval.Analyze(lp.G); return err }); err != nil {
			return layeredResult{}, err
		}
		if err = clk.time("ecfg.build", func() error { a.Ext, err = ecfg.Build(lp.G, a.Intervals); return err }); err != nil {
			return layeredResult{}, err
		}
		err = clk.time("cdg.build", func() error {
			if a.CDG, err = cdg.Build(a.Ext); err != nil {
				return err
			}
			a.FCDG, err = a.CDG.Forward()
			return err
		})
		if err != nil {
			return layeredResult{}, err
		}
		clk.time("dataflow.analyze", func() error { a.Flow = dataflow.Analyze(lp); return nil })
		procs[name] = a
	}
	// With every procedure prebuilt this only orders the call graph.
	an, err := analysis.AnalyzeProgramOpts(res, analysis.Options{Workers: 1, Prebuilt: procs})
	if err != nil {
		return layeredResult{}, err
	}
	var plans profiler.Plans
	if err = clk.time("profiler.plan", func() error { plans, err = profiler.BuildPlans(an); return err }); err != nil {
		return layeredResult{}, err
	}
	var run *interp.Result
	if err = clk.time("interp.run", func() error {
		run, err = interp.Run(res, interp.Options{Seed: pr.runSeed, Engine: interp.EngineTree})
		return err
	}); err != nil {
		return layeredResult{}, err
	}
	var prof profiler.ProgramProfile
	if err = clk.time("profiler.recover", func() error { prof, err = plans.Profile(run); return err }); err != nil {
		return layeredResult{}, err
	}
	var est *core.ProgramEstimate
	err = clk.time("core.estimate", func() error {
		est, err = core.EstimateProgram(an, map[string]freq.Totals(prof), costTables(res), estimateOptions(an, plans))
		return err
	})
	if err != nil {
		return layeredResult{}, err
	}
	r := layeredResult{time: est.Main.Time}
	for name, plan := range plans {
		r.counters += float64(plan.NumCounters())
		r.blocks += float64(len(profiler.BlockLeaders(res.Procs[name].G)))
	}
	return r, nil
}

func costTables(res *lower.Result) map[string]cost.Table {
	out := make(map[string]cost.Table, len(res.Procs))
	for name, proc := range res.Procs {
		out[name] = cost.Optimized.Table(proc)
	}
	return out
}

// estimateOptions are the estimator options core.Pipeline.Estimate derives:
// the dataflow framework's exact condition frequencies and the counter
// plans' constant-trip DO tests.
func estimateOptions(an *analysis.Program, plans profiler.Plans) core.Options {
	opt := core.Options{
		StaticFreq:         make(map[string]map[cdg.Condition]float64),
		DeterministicTests: make(map[string]map[cfg.NodeID]bool),
	}
	for name, a := range an.Procs {
		if exact := staticfreq.Exact(a); len(exact) > 0 {
			opt.StaticFreq[name] = exact
		}
		for _, id := range plans[name].ConstTripTests() {
			if opt.DeterministicTests[name] == nil {
				opt.DeterministicTests[name] = make(map[cfg.NodeID]bool)
			}
			opt.DeterministicTests[name][id] = true
		}
	}
	return opt
}

// analyzeColdTraced is analyze-cold's traced pass over the first traceOps
// programs of the seed's draw. Each program runs once through the pipeline
// (untraced) and once decomposed into timed layer calls (traced); the
// difference of the two mean times is the tracing overhead. Layer times and
// allocations are means per program; the slopes regress per-program time on
// CFG node count across the three size classes.
func analyzeColdTraced(c *config, o *outcome) error {
	if _, err := timeSetup(1, analyzeColdSetup(c, o)); err != nil {
		return err
	}
	draw := newColdDraw(c.seed)
	clk := newLayerClock()
	var untraced, traced, nodes, planMs, anMs []float64
	var counters, blocks float64
	for i := 0; i < c.traceOps; i++ {
		pr, err := draw.next()
		if err != nil {
			return err
		}
		runtime.GC()
		r, err := analyzeOnce(c, pr)
		if !o.op(err) {
			continue
		}
		before := clk.snapshot()
		runtime.GC()
		t0 := time.Now()
		lr, err := analyzeLayered(pr, clk)
		traced = append(traced, msSince(t0))
		untraced = append(untraced, r.ms)
		if err == nil && !near(lr.time, c.want(r.time)) {
			err = fmt.Errorf("layered %s: TIME(START)=%v, pipeline %v", pr.class.name, lr.time, c.want(r.time))
		}
		o.op(err)
		nodes = append(nodes, float64(r.nodes))
		planMs = append(planMs, clk.ms["profiler.plan"]-before["profiler.plan"])
		var an float64
		for _, l := range analysisLayers {
			an += clk.ms[l] - before[l]
		}
		anMs = append(anMs, an)
		counters += lr.counters
		blocks += lr.blocks
	}
	n := float64(max(1, len(traced)))
	for _, l := range []string{"lang.parse", "lower.lower", "interval.analyze", "ecfg.build",
		"cdg.build", "dataflow.analyze", "profiler.plan", "interp.run", "core.estimate"} {
		o.set(l+"_ms", clk.ms[l]/n, "ms")
	}
	var anAlloc float64
	for _, l := range append([]string{"lang.parse", "lower.lower"}, analysisLayers...) {
		anAlloc += clk.alloc[l]
	}
	o.set("analysis.alloc_bytes", anAlloc/n, "B")
	o.set("profiler.plan_alloc_bytes", clk.alloc["profiler.plan"]/n, "B")
	o.set("profiler.plan_slope", logSlope(nodes, planMs), "1")
	o.set("analysis.slope", logSlope(nodes, anMs), "1")
	o.set("lower.cfg_nodes", sum(nodes)/n, "count")
	if blocks > 0 {
		o.set("profiler.counters_per_block", counters/blocks, "1")
	}
	o.set("trace.analyze-cold.overhead_ms", mean(traced)-mean(untraced), "ms")
	return nil
}

func (l *layerClock) snapshot() map[string]float64 {
	out := make(map[string]float64, len(l.ms))
	for k, v := range l.ms {
		out[k] = v
	}
	return out
}
