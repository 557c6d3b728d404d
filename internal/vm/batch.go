package vm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cfg"
	"repro/internal/interp"
)

// laneState is the reusable per-lane execution state of a batch run: one
// runState whose Result, counter slices and edge slabs are built once and
// zeroed between seeds, plus the frame arena. A lane runs its shard of the
// seed batch sequentially; lanes never share mutable state.
type laneState struct {
	rs    runState
	arena *laneArena
}

func newLaneState(p *Program, opt interp.Options) *laneState {
	ls := &laneState{arena: newLaneArena(len(p.procs))}
	rs := &ls.rs
	rs.prog = p
	rs.opt = opt
	rs.lane = ls.arena
	rs.max = opt.MaxSteps
	if rs.max == 0 {
		rs.max = 500_000_000
	}
	if opt.Model != nil {
		rs.costs = p.costTables(opt.Model)
	}
	ls.build()
	return ls
}

// build allocates fresh result storage: once at lane start, and again after
// a sink retained the previous seed's Result (which transferred ownership
// of the whole structure, counter slices included).
func (ls *laneState) build() {
	rs := &ls.rs
	p := rs.prog
	rs.result = &interp.Result{ByProc: make(map[string]*interp.Counts, len(p.procs))}
	rs.counts = make([]*interp.Counts, len(p.procs))
	rs.edges = make([][]int64, len(p.procs))
	for i, pc := range p.procs {
		g := pc.proc.G
		maxID := g.MaxID()
		flat := make([]int64, pc.numEdges)
		ct := &interp.Counts{
			Node: make([]int64, maxID+1),
			Edge: make([][]int64, maxID+1),
		}
		for id := cfg.NodeID(1); id <= maxID; id++ {
			off := int(pc.edgeOff[id])
			n := len(g.OutEdges(id))
			ct.Edge[id] = flat[off : off+n : off+n]
		}
		rs.result.ByProc[pc.name] = ct
		rs.counts[i] = ct
		rs.edges[i] = flat
	}
	rs.initPaths()
}

// reset clears the reusable per-seed state so the next seed starts from the
// exact state a fresh Run would: zero counters, zero cost, reseeded RNG.
func (ls *laneState) reset(seed uint64) {
	rs := &ls.rs
	rs.opt.Seed = seed
	rs.rng = seed*2862933555777941757 + 3037000493
	rs.steps = 0
	rs.depth = 0
	rs.args = rs.args[:0]
	rs.parts = rs.parts[:0]
	r := rs.result
	r.Steps = 0
	r.Cost = 0
	r.Stopped = false
	r.StopFrames = nil
	for i, ct := range rs.counts {
		clearInt64(ct.Node)
		ct.Activations = 0
		clearInt64(rs.edges[i])
	}
	for _, pcn := range rs.paths {
		if pcn != nil {
			pcn.Reset()
		}
	}
}

func clearInt64(s []int64) {
	for i := range s {
		s[i] = 0
	}
}

// runSeed executes one seed on the lane. The returned Result is the lane's
// reusable storage: valid until the next reset.
func (ls *laneState) runSeed(seed uint64) (*interp.Result, error) {
	ls.reset(seed)
	rs := &ls.rs
	err := rs.runProc(rs.prog.mainIdx, nil, 0)
	if errors.Is(err, errStop) {
		rs.result.Stopped = true
		err = nil
	}
	rs.result.Steps = rs.steps
	return rs.result, err
}

// runLane executes one contiguous seed shard, reporting each outcome to
// sink with the seed's batch-global index. Returns total steps and exec
// nanoseconds (sink time excluded).
func (p *Program) runLane(opt interp.Options, seeds []uint64, base int, sink interp.BatchSink) (steps, execNanos int64) {
	ls := newLaneState(p, opt)
	for i, seed := range seeds {
		t0 := time.Now()
		res, err := ls.runSeed(seed)
		execNanos += int64(time.Since(t0))
		steps += res.Steps
		if sink != nil && sink(base+i, seed, res, err) {
			ls.build()
		}
	}
	return steps, execNanos
}

// RunBatch executes every seed through the compiled program, sharding the
// batch contiguously across up to lanes lanes (≤ 0 means GOMAXPROCS), each
// with its own arena-backed reusable frames and result storage. Per-seed
// results are bit-identical to Run with the same Options and seed — seeds
// are independent (own RNG, counters, Result), so neither fusion nor the
// lane count can change any per-seed outcome. Runs that need ordered
// observation (Out, OnNodeCost) are forced onto a single lane, which
// processes seeds strictly in batch order; OnNode runs fall back to the
// tree-walker per seed, like Run. Per-seed runtime errors are reported
// through the sink and do not stop the batch.
func (p *Program) RunBatch(opt interp.Options, seeds []uint64, lanes int, sink interp.BatchSink) (interp.BatchStats, error) {
	if opt.OnNode != nil {
		o := opt
		o.Engine = interp.EngineTree
		return interp.RunBatch(p.res, o, seeds, lanes, sink)
	}
	p, err := p.forSpec(opt.PathSpec)
	if err != nil {
		return interp.BatchStats{}, err
	}
	if lanes <= 0 {
		lanes = runtime.GOMAXPROCS(0)
	}
	if lanes > len(seeds) {
		lanes = len(seeds)
	}
	if opt.Out != nil || opt.OnNodeCost != nil {
		lanes = 1
	}
	if lanes < 1 {
		lanes = 1
	}
	stats := interp.BatchStats{Seeds: len(seeds), Lanes: lanes}
	if len(seeds) == 0 {
		return stats, nil
	}
	if lanes == 1 {
		stats.Steps, stats.ExecNanos = p.runLane(opt, seeds, 0, sink)
		return stats, nil
	}
	var (
		wg         sync.WaitGroup
		stepsTot   atomic.Int64
		execNanos  atomic.Int64
		batchSeeds = len(seeds)
	)
	for k := 0; k < lanes; k++ {
		lo := k * batchSeeds / lanes
		hi := (k + 1) * batchSeeds / lanes
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			st, ex := p.runLane(opt, seeds[lo:hi], lo, sink)
			stepsTot.Add(st)
			execNanos.Add(ex)
		}(lo, hi)
	}
	wg.Wait()
	stats.Steps = stepsTot.Load()
	stats.ExecNanos = execNanos.Load()
	return stats, nil
}
