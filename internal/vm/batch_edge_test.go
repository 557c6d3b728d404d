package vm

import (
	"maps"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lower"
	"repro/internal/pathprof"
	"repro/internal/profiler"
	"repro/internal/progen"
)

// Batch-runner edge cases: empty batches, lane counts exceeding the seed
// count, single-lane batches mixing error and success seeds, and path
// instrumentation surviving lane-storage reuse across error unwinding.

func TestBatchZeroSeeds(t *testing.T) {
	t.Parallel()
	res := lowerSrc(t, progen.Generate(3, 6, 2))
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	called := false
	sink := func(int, uint64, *interp.Result, error) bool { called = true; return false }
	for _, lanes := range []int{0, 1, 16} {
		stats, err := prog.RunBatch(interp.Options{}, nil, lanes, sink)
		if err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		if stats.Seeds != 0 || stats.Steps != 0 {
			t.Fatalf("lanes %d: stats = %+v, want empty", lanes, stats)
		}
		if called {
			t.Fatalf("lanes %d: sink called on an empty batch", lanes)
		}
	}
	// A nil sink must be fine too.
	if _, err := prog.RunBatch(interp.Options{}, nil, 4, nil); err != nil {
		t.Fatalf("nil sink: %v", err)
	}
}

func TestBatchMoreLanesThanSeeds(t *testing.T) {
	t.Parallel()
	src := progen.Generate(11, 8, 3)
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := cost.Optimized
	opt := interp.Options{MaxSteps: 2_000_000, Model: &m}
	seeds := []uint64{6, 2, 9}
	want := make([]*interp.Result, len(seeds))
	for i, s := range seeds {
		o := opt
		o.Seed = s
		o.Engine = interp.EngineTree
		if want[i], err = interp.Run(res, o); err != nil {
			t.Fatalf("tree seed %d: %v", s, err)
		}
	}
	got := make([]*interp.Result, len(seeds))
	stats, err := prog.RunBatch(opt, seeds, 64, func(idx int, _ uint64, r *interp.Result, err error) bool {
		if err != nil {
			t.Errorf("seed idx %d: %v", idx, err)
			return false
		}
		got[idx] = r
		return true
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if stats.Lanes > len(seeds) {
		t.Fatalf("lanes = %d with %d seeds: lanes must be clamped", stats.Lanes, len(seeds))
	}
	for i, s := range seeds {
		if d := diffResults(want[i], got[i]); d != "" {
			t.Fatalf("seed %d: %s", s, d)
		}
	}
}

// TestBatchSingleLanePathReuse runs a single lane over a seed set that
// mixes runtime errors, STOPs and completions, with path instrumentation
// attached: every per-seed outcome (error text, counters, path counts,
// partials order) must match the tree-walker exactly, proving the lane's
// reused path-counter storage is fully reset across seeds — including
// after mid-batch unwinding.
func TestBatchSingleLanePathReuse(t *testing.T) {
	t.Parallel()
	// IRAND draws decide, per seed, between a clean finish, a STOP inside
	// the loop (recording partials) and a division-by-zero error.
	src := `      PROGRAM P
      INTEGER I, J, K, S
      S = 0
      DO 10 K = 1, 3
      I = IRAND(6)
      IF (I .EQ. 1) THEN
      STOP
      ENDIF
      J = 6 / (I - 2)
      S = S + J
   10 CONTINUE
      PRINT *, S
      END
`
	res := lowerSrc(t, src)
	prog, err := Compile(res)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := cost.Optimized
	opt := interp.Options{MaxSteps: 100000, Model: &m, PathSpec: pathSpec(t, res, false)}
	seeds := make([]uint64, 30)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	want := make([]*interp.Result, len(seeds))
	wantErr := make([]error, len(seeds))
	var stops, fails, fine int
	for i, s := range seeds {
		o := opt
		o.Seed = s
		o.Engine = interp.EngineTree
		want[i], wantErr[i] = interp.Run(res, o)
		switch {
		case wantErr[i] != nil:
			fails++
		case want[i].Stopped:
			stops++
		default:
			fine++
		}
	}
	if stops == 0 || fails == 0 || fine == 0 {
		t.Fatalf("bad corpus: %d stops, %d errors, %d clean — need all three", stops, fails, fine)
	}
	got := make([]*interp.Result, len(seeds))
	errs := make([]error, len(seeds))
	stats, err := prog.RunBatch(opt, seeds, 1, func(idx int, _ uint64, r *interp.Result, err error) bool {
		if err != nil {
			errs[idx] = err
			return false
		}
		got[idx] = r
		return true
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if stats.Lanes != 1 {
		t.Fatalf("lanes = %d, want 1", stats.Lanes)
	}
	for i, s := range seeds {
		if (wantErr[i] == nil) != (errs[i] == nil) ||
			(wantErr[i] != nil && wantErr[i].Error() != errs[i].Error()) {
			t.Fatalf("seed %d: err tree=%v batch=%v", s, wantErr[i], errs[i])
		}
		if wantErr[i] != nil {
			continue
		}
		if d := diffResults(want[i], got[i]); d != "" {
			t.Fatalf("seed %d: %s", s, d)
		}
		if d := diffPaths(want[i], got[i]); d != "" {
			t.Fatalf("seed %d: %s", s, d)
		}
	}
}

// diffPaths compares the path-counter state of two results of the same
// seed, partials order included.
func diffPaths(tree, vm *interp.Result) string {
	if len(tree.Paths) != len(vm.Paths) {
		return "Paths size differs"
	}
	for name, tc := range tree.Paths {
		vc := vm.Paths[name]
		if vc == nil {
			return "proc " + name + ": missing path counts"
		}
		if tc.NumPaths != vc.NumPaths {
			return "proc " + name + ": NumPaths differs"
		}
		same := true
		tc.Each(func(id, c int64) {
			if vc.Total(id) != c {
				same = false
			}
		})
		vc.Each(func(id, c int64) {
			if tc.Total(id) != c {
				same = false
			}
		})
		if !same {
			return "proc " + name + ": path counts differ"
		}
		if len(tc.Partials) != len(vc.Partials) {
			return "proc " + name + ": partials count differs"
		}
		for i := range tc.Partials {
			if tc.Partials[i] != vc.Partials[i] {
				return "proc " + name + ": partials order differs"
			}
		}
		if !maps.Equal(tc.Pairs, vc.Pairs) {
			return "proc " + name + ": path pair counts differ"
		}
	}
	return ""
}

// pathSpec builds the whole-program Ball–Larus spec for res.
func pathSpec(t *testing.T, res *lower.Result, multiIter bool) *interp.PathSpec {
	t.Helper()
	ap, err := analysis.AnalyzeProgram(res)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	sk, err := profiler.BuildPlans(ap)
	if err != nil {
		t.Fatalf("sarkar plans: %v", err)
	}
	bl, err := pathprof.BuildPlansWith(ap, sk, pathprof.Options{MultiIter: multiIter})
	if err != nil {
		t.Fatalf("path plans: %v", err)
	}
	return bl.Spec()
}
