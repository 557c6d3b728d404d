package vm

import (
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/progen"
)

// TestCompileWithoutSpecUnchanged pins the uninstrumented compile: no path
// opcode anywhere, and the same instruction and fusion counts the compiler
// produced before path counters moved into the bytecode (fused total,
// eliminated-by-fusion total, NoFuse total).
func TestCompileWithoutSpecUnchanged(t *testing.T) {
	t.Parallel()
	type counts struct{ fused, eliminated, plain int }
	want := []counts{{43, 41, 84}, {23, 16, 39}, {50, 46, 96}}
	wantProgen := counts{5578, 4544, 10122}
	measure := func(src string) counts {
		res := lowerSrc(t, src)
		f, err := Compile(res)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		p, err := CompileOpts(res, CompileOptions{NoFuse: true})
		if err != nil {
			t.Fatalf("compile nofuse: %v", err)
		}
		for _, prog := range []*Program{f, p} {
			if v, err := prog.forSpec(nil); err != nil || v != prog {
				t.Fatalf("forSpec(nil) = %p, %v; want the program itself", v, err)
			}
			for _, pc := range prog.procs {
				if pc.path != nil {
					t.Fatalf("proc %s: instrumented without a spec", pc.name)
				}
				for i, in := range pc.ins {
					if _, ok := pathOps[in.op]; ok {
						t.Fatalf("proc %s ins %d: path opcode %s without a spec", pc.name, i, pathOps[in.op])
					}
				}
			}
		}
		return counts{f.NumInstructions(), f.FusedInstructions(), p.NumInstructions()}
	}
	for i, src := range fuseWitnesses {
		if got := measure(src); got != want[i] {
			t.Errorf("witness %d: counts %+v, want %+v", i, got, want[i])
		}
	}
	var got counts
	for seed := uint64(1); seed <= 40; seed++ {
		c := measure(progen.GenerateOpts(seed, 4+int(seed%8), 1+int(seed%3), progen.Opts{ConstLoops: seed%2 == 0}))
		got.fused += c.fused
		got.eliminated += c.eliminated
		got.plain += c.plain
	}
	if got != wantProgen {
		t.Errorf("progen slice: counts %+v, want %+v", got, wantProgen)
	}
}

// TestPathVariantShape checks what the instrumented compile adds to the
// plain one, procedure by procedure: exactly one stub per edge with a
// nonzero increment or a bump, one commit before END, and two frame slots.
func TestPathVariantShape(t *testing.T) {
	t.Parallel()
	for si, src := range fuseWitnesses {
		res := lowerSrc(t, src)
		plain, err := CompileOpts(res, CompileOptions{NoFuse: true})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		spec := pathSpec(t, res, false)
		v, err := plain.forSpec(spec)
		if err != nil {
			t.Fatalf("path variant: %v", err)
		}
		if again, _ := plain.forSpec(spec); again != v {
			t.Fatalf("src %d: variant not cached per spec", si)
		}
		for pi, pc := range v.procs {
			base := plain.procs[pi]
			ps := spec.Procs[pc.name]
			if pc.path != ps {
				t.Fatalf("src %d proc %s: variant carries the wrong spec", si, pc.name)
			}
			stubs := 0
			for id := cfg.NodeID(1); id <= pc.proc.G.MaxID(); id++ {
				for k := range pc.proc.G.OutEdges(id) {
					if ps.Inc[id][k] != 0 || ps.Bump[id][k] {
						stubs++
					}
				}
			}
			if got, want := len(pc.ins), len(base.ins)+stubs+1; got != want {
				t.Errorf("src %d proc %s: %d instructions, want %d plain + %d stubs + 1 commit",
					si, pc.name, got, len(base.ins), stubs)
			}
			if got, want := len(pc.valTemplate), len(base.valTemplate)+2; got != want {
				t.Errorf("src %d proc %s: %d value slots, want %d", si, pc.name, got, want)
			}
		}
	}
}

// TestPathsMatchTreeStopCorpus runs a STOP-heavy generated corpus with
// nested calls under path instrumentation, single-id and multi-iteration,
// and requires vm and vm-batch (one and two lanes) to reproduce the
// tree-walker's Result exactly: counters, stop frames, path counts and
// pairs, and the STOP partials in innermost-first order.
func TestPathsMatchTreeStopCorpus(t *testing.T) {
	t.Parallel()
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	var nestedStops, pairs int
	for gen := uint64(1); gen <= 40; gen++ {
		src := progen.GenerateOpts(gen, 4+int(gen%6), 3, progen.Opts{Stops: true})
		res := lowerSrc(t, src)
		prog, err := Compile(res)
		if err != nil {
			t.Fatalf("gen %d: compile: %v", gen, err)
		}
		for _, multi := range []bool{false, true} {
			m := cost.Optimized
			opt := interp.Options{MaxSteps: 2_000_000, Model: &m, PathSpec: pathSpec(t, res, multi)}
			want := make([]*interp.Result, len(seeds))
			wantErr := make([]error, len(seeds))
			for i, s := range seeds {
				o := opt
				o.Seed = s
				o.Engine = interp.EngineTree
				want[i], wantErr[i] = interp.Run(res, o)
			}
			check := func(engine string, i int, got *interp.Result, err error) {
				t.Helper()
				if (err == nil) != (wantErr[i] == nil) || (err != nil && err.Error() != wantErr[i].Error()) {
					t.Fatalf("gen %d multi=%v seed %d %s: err %v, tree %v", gen, multi, seeds[i], engine, err, wantErr[i])
				}
				if err != nil {
					return
				}
				if d := diffResults(want[i], got); d != "" {
					t.Fatalf("gen %d multi=%v seed %d %s: %s", gen, multi, seeds[i], engine, d)
				}
				if !reflect.DeepEqual(want[i].StopFrames, got.StopFrames) {
					t.Fatalf("gen %d multi=%v seed %d %s: stop frames %+v, tree %+v",
						gen, multi, seeds[i], engine, got.StopFrames, want[i].StopFrames)
				}
				if d := diffPaths(want[i], got); d != "" {
					t.Fatalf("gen %d multi=%v seed %d %s: %s", gen, multi, seeds[i], engine, d)
				}
			}
			for i, s := range seeds {
				o := opt
				o.Seed = s
				got, err := prog.Run(o)
				check("vm", i, got, err)
				if err == nil && len(got.StopFrames) > 1 {
					nestedStops++
				}
				if err == nil && multi {
					for _, pc := range got.Paths {
						for k := range pc.Pairs {
							if k.Prev >= 0 {
								pairs++
							}
						}
					}
				}
			}
			for _, lanes := range []int{1, 2} {
				got := make([]*interp.Result, len(seeds))
				errs := make([]error, len(seeds))
				if _, err := prog.RunBatch(opt, seeds, lanes, func(idx int, _ uint64, r *interp.Result, err error) bool {
					got[idx], errs[idx] = r, err
					return true
				}); err != nil {
					t.Fatalf("gen %d: RunBatch: %v", gen, err)
				}
				for i := range seeds {
					check("vm-batch", i, got[i], errs[i])
				}
			}
		}
	}
	if nestedStops == 0 || pairs == 0 {
		t.Fatalf("weak corpus: %d stops through nested calls, %d chained path pairs", nestedStops, pairs)
	}
}
