package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/freq"
	"repro/internal/interp"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/vm"
)

// batchSeeds is the number of profiling seeds per profile-batch Estimate.
const batchSeeds = 64

// The profile-batch program's mean steps per run must fall in this band.
// Large programs range over more than 5x in steps per run, so without it
// seeds per second would measure which program the seed drew rather than
// the engine.
const largeMinSteps, largeMaxSteps = 10000, 16000

// pickLarge draws the seed's profile-batch program.
func pickLarge(seed uint64) (string, error) {
	return drawProgram(rand.New(rand.NewPCG(seed, 0xba7c)), large, largeMinSteps, largeMaxSteps)
}

// batchState is profile-batch's set-up: the large program loaded twice on
// vm-batch, once per counter plan, with plans, path numberings and bytecode
// already built.
type batchState struct {
	sarkar, ballLarus *core.Pipeline
	seeds             *rand.Rand
}

// nextSeeds returns a fresh batch of profiling seeds.
func (st *batchState) nextSeeds() []uint64 {
	base := st.seeds.Uint64N(1 << 40)
	out := make([]uint64, batchSeeds)
	for i := range out {
		out[i] = base + uint64(i)
	}
	return out
}

// batchSetup loads both pipelines and checks, on one setup seed, that the
// vm-batch profile equals the tree-walker's under each plan.
func batchSetup(c *config, o *outcome, src string, st *batchState) func() error {
	return func() error {
		o.op(checkFigure1(c))
		for _, dst := range []struct {
			p    **core.Pipeline
			plan core.Strategy
		}{{&st.sarkar, core.StrategySarkar}, {&st.ballLarus, core.StrategyBallLarus}} {
			p, err := core.LoadOpts(src, core.LoadOptions{Workers: c.nproc, Engine: interp.EngineVMBatch, Plan: dst.plan})
			if err != nil {
				return err
			}
			if _, err := p.Plans(); err != nil {
				return err
			}
			if fb, err := p.EngineFallback(); fb {
				o.op(fmt.Errorf("vm-batch fell back to the tree-walker: %v", err))
			}
			got, _, err := p.Profile(interp.Options{}, 1)
			if err != nil {
				return err
			}
			ref, _, err := p.Profile(interp.Options{Engine: interp.EngineTree}, 1)
			if err != nil {
				return err
			}
			if err = sameProfile(c, got, ref); err != nil {
				err = fmt.Errorf("%v vm-batch vs tree-walker: %w", dst.plan, err)
			}
			o.op(err)
			*dst.p = p
		}
		return nil
	}
}

// batchOnce is one 64-seed Estimate: Profile then EstimateWithProfile,
// which is exactly what Pipeline.Estimate runs, split so the recovered
// profile can be checked.
func batchOnce(p *core.Pipeline, seeds []uint64) (ms float64, alloc uint64, prof profiler.ProgramProfile, est *core.ProgramEstimate, err error) {
	a0 := allocBytes()
	t0 := time.Now()
	prof, _, err = p.Profile(interp.Options{}, seeds...)
	if err == nil {
		est, err = p.EstimateWithProfile(prof, cost.Optimized, core.Options{})
	}
	return msSince(t0), allocBytes() - a0, prof, est, err
}

// batchPair runs the same fresh seed batch through the Sarkar and then the
// Ball–Larus pipeline and checks that both recover the identical profile
// and estimate.
func batchPair(c *config, st *batchState, seeds []uint64) (skMs, blMs float64, alloc uint64, prof profiler.ProgramProfile, err error) {
	skMs, skAlloc, skProf, skEst, err := batchOnce(st.sarkar, seeds)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("sarkar: %w", err)
	}
	blMs, blAlloc, blProf, blEst, err := batchOnce(st.ballLarus, seeds)
	if err != nil {
		return 0, 0, 0, nil, fmt.Errorf("ball-larus: %w", err)
	}
	if err := sameProfile(c, blProf, skProf); err != nil {
		return skMs, blMs, skAlloc + blAlloc, skProf, fmt.Errorf("ball-larus vs sarkar profile: %w", err)
	}
	if !near(blEst.Main.Time, c.want(skEst.Main.Time)) || !near(blEst.Main.Var, c.want(skEst.Main.Var)) {
		return skMs, blMs, skAlloc + blAlloc, skProf, fmt.Errorf("ball-larus vs sarkar estimate: TIME %v vs %v", blEst.Main.Time, c.want(skEst.Main.Time))
	}
	return skMs, blMs, skAlloc + blAlloc, skProf, nil
}

func profileBatch(c *config, o *outcome) error {
	src, err := pickLarge(c.seed)
	if err != nil {
		return err
	}
	st := &batchState{}
	setupS, err := timeSetup(c.reps(3), batchSetup(c, o, src, st))
	if err != nil {
		return err
	}
	st.seeds = rand.New(rand.NewPCG(c.seed, 0x5eed))
	var lat, skLat, blLat, alloc []float64
	deadline := time.Now().Add(time.Duration(c.seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		skMs, blMs, a, _, err := batchPair(c, st, st.nextSeeds())
		if !o.op(err) && skMs == 0 {
			continue
		}
		lat = append(lat, skMs+blMs)
		skLat = append(skLat, skMs)
		blLat = append(blLat, blMs)
		alloc = append(alloc, float64(a))
	}
	runs := make([]float64, len(lat))
	seeds := make([]float64, len(lat))
	for i := range lat {
		runs[i], seeds[i] = 2*batchSeeds, batchSeeds
	}
	allocPerRun := div(sum(alloc), sum(runs))
	o.endToEnd(setupS, blockRate(runs, lat, 1), quantile(lat, 0.5), quantile(lat, 0.9), allocPerRun)
	o.name("setup_s", setupS, "s", c.reps(3))
	o.name("sarkar_seeds_per_s", blockRate(seeds, skLat, 1), "1/s", len(lat))
	o.name("bl_seeds_per_s", blockRate(seeds, blLat, 1), "1/s", len(lat))
	o.name("profile_alloc_bytes_per_seed", allocPerRun, "B", len(lat))
	return nil
}

// batchLayered is one batch decomposed into direct layer calls: the
// compiled program's RunBatch on nproc lanes with counter recovery (plan's
// Profile) timed inside the sink, then the estimate from the merged
// profile. It returns the merged profile, the lanes' summed execution time
// and the summed recovery time.
func batchLayered(c *config, st *batchState, code *vm.Program, opt interp.Options, recoverRun func(*interp.Result) (profiler.ProgramProfile, error), seeds []uint64) (profiler.ProgramProfile, int64, int64, error) {
	profs := make([]profiler.ProgramProfile, len(seeds))
	errs := make([]error, len(seeds))
	var recoverNs atomic.Int64
	stats, err := code.RunBatch(opt, seeds, c.nproc, func(idx int, _ uint64, run *interp.Result, rerr error) bool {
		if rerr != nil {
			errs[idx] = rerr
			return false
		}
		t0 := time.Now()
		profs[idx], errs[idx] = recoverRun(run)
		recoverNs.Add(int64(time.Since(t0)))
		return false
	})
	if err != nil {
		return nil, 0, 0, err
	}
	acc := make(profiler.ProgramProfile)
	for i := range seeds {
		if errs[i] != nil {
			return nil, 0, 0, errs[i]
		}
		for name, totals := range profs[i] {
			if acc[name] == nil {
				acc[name] = make(freq.Totals)
			}
			acc[name].Add(totals)
		}
	}
	if _, err := st.sarkar.EstimateWithProfile(acc, cost.Optimized, core.Options{}); err != nil {
		return nil, 0, 0, err
	}
	return acc, stats.ExecNanos, recoverNs.Load(), nil
}

// profileBatchTraced is profile-batch's traced pass: traceOps seed batches,
// each run as an untraced pipeline pair and as a decomposed pair (vm
// RunBatch + profiler/pathprof recovery timed separately). The overhead is
// the difference of the mean pair times.
func profileBatchTraced(c *config, o *outcome) error {
	src, err := pickLarge(c.seed)
	if err != nil {
		return err
	}
	st := &batchState{seeds: rand.New(rand.NewPCG(c.seed, 0x5eed))}
	if _, err := timeSetup(1, batchSetup(c, o, src, st)); err != nil {
		return err
	}
	res := st.sarkar.Res
	skPlans, err := st.sarkar.Plans()
	if err != nil {
		return err
	}
	blPlans, err := pathprof.BuildPlansWith(st.sarkar.An, skPlans, pathprof.Options{})
	if err != nil {
		return err
	}
	var compileMs []float64
	var code *vm.Program
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if code, err = vm.Compile(res); err != nil {
			return err
		}
		compileMs = append(compileMs, msSince(t0))
	}
	o.set("vm.compile_ms", quantile(compileMs, 0.5), "ms")

	var untraced, traced []float64
	var skExec, skRec, blExec, blRec int64
	for i := 0; i < c.traceOps; i++ {
		seeds := st.nextSeeds()
		skMs, blMs, _, ref, err := batchPair(c, st, seeds)
		if !o.op(err) {
			continue
		}
		untraced = append(untraced, skMs+blMs)
		t0 := time.Now()
		skProf, exec, rec, err := batchLayered(c, st, code, interp.Options{}, skPlans.Profile, seeds)
		if o.op(err) {
			skExec += exec
			skRec += rec
			o.op(sameProfile(c, skProf, ref))
		}
		blProf, exec, rec, err := batchLayered(c, st, code, interp.Options{PathSpec: blPlans.Spec()}, blPlans.Profile, seeds)
		if o.op(err) {
			blExec += exec
			blRec += rec
			o.op(sameProfile(c, blProf, ref))
		}
		traced = append(traced, msSince(t0))
	}
	perSeed := float64(batchSeeds * max(1, len(traced)))
	o.set("vm.batch_exec_ns_per_seed", float64(skExec)/perSeed, "ns")
	o.set("profiler.recover_ns_per_seed", float64(skRec)/perSeed, "ns")
	o.set("vm.path_exec_ns_per_seed", float64(blExec)/perSeed, "ns")
	o.set("pathprof.recover_ns_per_seed", float64(blRec)/perSeed, "ns")
	o.set("trace.profile-batch.overhead_ms", mean(traced)-mean(untraced), "ms")

	allocPerSeed, err := batchAllocPerSeed(code, st.nextSeeds())
	if err != nil {
		return err
	}
	o.set("vm.alloc_bytes_per_seed", allocPerSeed, "B")

	var bumps float64
	for s := uint64(1); s <= 8; s++ {
		run, err := code.Run(interp.Options{Seed: s})
		if !o.op(err) {
			continue
		}
		for _, plan := range skPlans {
			ov := plan.MeasureOverhead(run, cost.Model{})
			bumps += float64(ov.Increments+ov.TripAdds) / 8
		}
	}
	o.set("profiler.bumps_per_run", bumps, "count")
	fallbacks := 0
	for _, pl := range blPlans.ByProc {
		if !pl.Instrumented() {
			fallbacks++
		}
	}
	o.set("pathprof.fallback_procs", float64(fallbacks), "count")
	return nil
}

// batchAllocPerSeed measures the engine's own heap allocation per seed of
// a single-lane Sarkar RunBatch, after one warm-up batch, with
// runtime.ReadMemStats (which flushes every per-P cache) around it.
func batchAllocPerSeed(code *vm.Program, seeds []uint64) (float64, error) {
	runAll := func() error {
		var seedErr error
		_, err := code.RunBatch(interp.Options{}, seeds, 1, func(_ int, _ uint64, _ *interp.Result, rerr error) bool {
			if rerr != nil && seedErr == nil {
				seedErr = rerr
			}
			return false
		})
		if err != nil {
			return err
		}
		return seedErr
	}
	if err := runAll(); err != nil {
		return 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := runAll(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(seeds)), nil
}
