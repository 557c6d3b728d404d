// Package vm is the bytecode execution engine: a one-time compiler from
// lowered procedures to a flat, slot-indexed instruction stream, plus a
// tight switch-dispatch interpreter that runs it. Variables are resolved at
// compile time to dense frame slots (no string maps), DO-loop trip counts
// live in slots instead of a map, branch targets are precomputed
// instruction indices, and the per-node bookkeeping (step count, node
// counter, cost accumulation) is fused into the instruction stream.
//
// Compile once per program, then run every profiling seed against the
// shared Program; per-activation frames are recycled through per-procedure
// pools so the steady-state run allocates only what the program itself
// allocates (local arrays, by-value argument cells). Runs under a
// Ball–Larus PathSpec execute a variant compiled once per spec with the
// path counters in the instruction stream, through the same exec loop.
//
// The engine is bit-identical to the tree-walker in internal/interp: the
// same step counts, node/edge counters, activation counts, float cost
// accumulation order, RNG draw order and runtime error messages. Programs
// the compiler cannot handle (see BailoutError) and runs that set
// Options.OnNode fall back to the tree-walker.
package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cfg"
	"repro/internal/cost"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
)

// opcode is the instruction operation.
type opcode uint8

const (
	// opNode is the fused per-node bookkeeping marker: step count and
	// limit, node counter, cost accumulation, OnNodeCost hook. a = node ID.
	opNode       opcode = iota
	opConst             // push consts[a]
	opLocal             // push vals[a]
	opRef               // push *refs[a]
	opElem              // a=array slot, b=#subs, c=name idx: pop subs, push element
	opStoreLocal        // pop value into vals[a] (converted to the cell type)
	opStoreRef          // pop value into *refs[a]
	opStoreElem         // a=array slot, b=#subs, c=name idx: pop subs then value
	opNot               // logical negate the top
	opNeg               // arithmetic negate the top
	opBin               // a=lang.BinOp: pop two, push result
	opIntrin            // a=intrinsic id, b=#args
	opBranch            // pop cond; true: a/flat c, false: b/flat d
	opJmp               // jump to a counting flat edge b
	opGoto              // jump to a, no edge counted (prologue -> entry)
	opArithIf           // pop value; arms[a..a+2] = LT/EQ/GT
	opCGoto             // pop value; arms[a..a+b] = G1..GN then default
	opTrip              // a=line: pop step,hi,lo; push F77 trip count
	opDoInitFin         // a=var slot, b=isRef, c=trip slot: pop lo, pop trip
	opDoTest            // trips[e] > 0: a/flat c, else b/flat d
	opDoIncr            // a=var slot, b=flags(1 isRef, 2 hasStep), c=trip slot
	opArgLocal          // stage &vals[a]
	opArgRef            // stage refs[a]
	opArgArray          // stage arrays[a]
	opArgElem           // a=array slot, b=#subs, c=name idx: stage element pointer
	opArgVal            // pop value, stage a fresh cell holding the copy
	opCall              // a=proc idx, b=#args, c=call line
	opActivate          // count one activation (end of prologue)
	opAllocArray        // a=array slot, b=#dims, c=meta idx: pop dims, allocate
	opBindArray         // a=array slot, b=#dims, c=meta idx: reinterpret param array
	opPrintStr          // append strs[a] (errors when Out is nil, like the tree)
	opPrintVal          // pop value, append its rendering
	opPrintFlush        // write the accumulated line
	opEnd               // return from the procedure
	opStop              // STOP: unwind every frame

	// Superinstructions: fused forms of the hot pairs/triples above,
	// installed by the post-compile peephole pass in fuse.go. Each one
	// replaces two or three dispatches (and their cost/counter bookkeeping
	// preambles) with a single switch arm; semantics are exactly the
	// concatenation of the constituent opcodes.
	opNodeJmp       // opNode(f) + opJmp: a=target, b=flat edge
	opNodeDoTest    // opNode(f) + opDoTest: a/b targets, c/d flat edges, e=trip slot
	opNodeDoIncrJmp // opNode(f) + stepless opDoIncr(a=var, b=flags, c=trip) + opJmp(d=target, e=flat)
	opDoIncrJmp     // opDoIncr(a=var, b=flags, c=trip) + opJmp(d=target, e=flat)
	opNodeConst     // opNode(f) + opConst(a)
	opNodeLocal     // opNode(f) + opLocal(a)
	opNodeRef       // opNode(f) + opRef(a)
	opLocalConstBin // opLocal(a) + opConst(b) + opBin(c)
	opLocalLocalBin // opLocal(a) + opLocal(b) + opBin(c)
	opStoreLocalJmp // opStoreLocal(a) + opJmp(b=target, c=flat)
	opStoreRefJmp   // opStoreRef(a) + opJmp(b=target, c=flat)

	// Round two, driven by the dynamic mix of the bench corpus: the inner
	// loop of a typical generated program is DoTest, Node, Ref, Ref, Const,
	// Bin, Bin, StoreRef, Jmp, Node, DoIncr, Jmp — these forms collapse the
	// remaining expression/store/back-edge dispatches.
	opRefConstBin    // opRef(a) + opConst(b) + opBin(c)
	opConstBin       // opConst(a) + opBin(b): pop l, push l op consts[a]
	opBinStoreRefJmp // opBin(a) + opStoreRef(b) + opJmp(c=target, d=flat)
	opBinBranch      // opBin(e) + opBranch(a/b targets, c/d flat edges)
	opDoInitFinJmp   // opDoInitFin(a=var, b=isRef, c=trip) + opJmp(d=target, e=flat)

	// Whole-statement forms: an accumulation statement like S = S + X*C
	// opens with Node, Ref, [Ref,] Const, Bin — common enough in generated
	// programs to deserve single-dispatch opcodes.
	opNodeRefConstBin    // opNode(f) + opRef(a) + opConst(b) + opBin(c)
	opNodeRefRefConstBin // opNode(f) + opRef(a), then opRef(b) + opConst(c) + opBin(d)

	// Round three, aimed at the shapes the dynamic mix still dispatches one
	// by one: the DO-loop header (Node, Const lo, Const hi, Const step,
	// Trip), call-argument staging, and the two-instruction procedure
	// prologue.
	opNodeConstConst // opNode(f) + opConst(a) + opConst(b)
	opConstTrip      // opConst(a=step const) + opTrip(b=line)
	opArgLocal2      // opArgLocal(a) + opArgLocal(b)
	opNodeArgLocal2  // opNode(f) + opArgLocal(a) + opArgLocal(b)
	opActivateGoto   // opActivate + opGoto(a)

	// Ball–Larus path instrumentation, emitted only into the plan-specific
	// programs forSpec builds (never serialized: decode rejects every
	// opcode past opActivateGoto). The path register and the previously
	// completed path id live in frame value slots r and r+1. Stubs sit on
	// the instrumented edges: the edge's jump lands on the stub, which
	// updates the register and jumps on to the edge's real target.
	opPathInc  // a=target, b=r, c=const idx of the edge increment
	opPathBump // a=target, b=r, c=const idx of the increment, d=const idx of the reset value
	opPathEnd  // a=r: count the activation's final path (precedes opEnd)
)

// instr is one fixed-width instruction. Field meaning depends on op; f is
// only used by superinstructions (the fused opNode's node ID).
type instr struct {
	op               opcode
	a, b, c, d, e, f int32
}

// arm is one precomputed multi-way branch target.
type arm struct {
	ip   int32 // target instruction index
	flat int32 // flat edge-counter index
}

// paramBind describes where one parameter lands in the callee frame.
type paramBind struct {
	slot    int32
	isArray bool
}

// arrayMeta is the compile-time identity of an array slot (error messages,
// element type for allocation).
type arrayMeta struct {
	name string
	typ  lang.Type
}

// procCode is one compiled procedure.
type procCode struct {
	proc   *lower.Proc
	name   string
	ins    []instr
	consts []interp.Value
	strs   []string
	arms   []arm
	// lines maps node ID to its source line (step-limit errors).
	lines []int32
	// edgeOff maps node ID to its first flat edge-counter index.
	edgeOff  []int32
	numEdges int
	// valTemplate seeds the local-scalar slots of a fresh frame.
	valTemplate []interp.Value
	numRefs     int
	numArrays   int
	numTrips    int
	// tripNodes maps a trip slot back to its DO test node (StopFrame
	// records report registers by test node, like the tree-walker).
	tripNodes []cfg.NodeID
	params    []paramBind
	meta      []arrayMeta
	entry     int32
	maxStack  int
	// fused counts the instructions eliminated by superinstruction fusion.
	fused int
	// path is the Ball–Larus instrumentation compiled into ins (nil when
	// the procedure is uninstrumented); pathSlot is the value slot of its
	// path register, followed by the previous-path id.
	path     *interp.PathProcSpec
	pathSlot int32
	pool     sync.Pool
}

// frame is one pooled activation record.
type frame struct {
	vals     []interp.Value
	refs     []*interp.Value
	arrays   []*interp.Array
	trips    []int64
	callLine int
}

func (pc *procCode) getFrame() *frame {
	f, _ := pc.pool.Get().(*frame)
	if f == nil {
		f = &frame{
			vals:   make([]interp.Value, len(pc.valTemplate)),
			refs:   make([]*interp.Value, pc.numRefs),
			arrays: make([]*interp.Array, pc.numArrays),
			trips:  make([]int64, pc.numTrips),
		}
	}
	copy(f.vals, pc.valTemplate)
	for i := range f.trips {
		f.trips[i] = 0
	}
	return f
}

func (pc *procCode) putFrame(f *frame) {
	// Drop references so pooled frames do not pin arrays or caller cells.
	for i := range f.refs {
		f.refs[i] = nil
	}
	for i := range f.arrays {
		f.arrays[i] = nil
	}
	pc.pool.Put(f)
}

// Program is a compiled program, safe for concurrent Run calls.
type Program struct {
	res     *lower.Result
	procs   []*procCode
	byName  map[string]int
	mainIdx int
	// noFuse records CompileOptions.NoFuse, so path variants compile the
	// same way as the program they instrument.
	noFuse bool

	// costCache memoizes per-node cost tables by model value, so running
	// many seeds under one model prices the nodes once. Tables are
	// immutable after insertion and shared by concurrent runs.
	costMu    sync.Mutex
	costCache map[cost.Model][][]float64

	// variants memoizes the path-instrumented program per PathSpec (by
	// identity — specs are built once per Plans and shared), mirroring
	// costCache: compile once, run every seed.
	variantMu sync.Mutex
	variants  map[*interp.PathSpec]*Program
}

// forSpec returns the program a run under spec executes: p itself when
// spec is nil, otherwise a variant recompiled from the lowered program
// with the path counters compiled in (see route in compile.go), built on
// first use.
func (p *Program) forSpec(spec *interp.PathSpec) (*Program, error) {
	if spec == nil {
		return p, nil
	}
	p.variantMu.Lock()
	defer p.variantMu.Unlock()
	if v, ok := p.variants[spec]; ok {
		return v, nil
	}
	v, err := compileAll(p.res, CompileOptions{NoFuse: p.noFuse}, spec)
	if err != nil {
		return nil, err
	}
	if p.variants == nil {
		p.variants = make(map[*interp.PathSpec]*Program)
	}
	p.variants[spec] = v
	return v, nil
}

// Instrument builds the variant that runs under spec ahead of the first
// Run or RunBatch with it, which would otherwise build it on the spot.
func (p *Program) Instrument(spec *interp.PathSpec) error {
	_, err := p.forSpec(spec)
	return err
}

// NumInstructions returns the total instruction count across procedures
// (after fusion, when it ran).
func (p *Program) NumInstructions() int {
	n := 0
	for _, pc := range p.procs {
		n += len(pc.ins)
	}
	return n
}

// FusedInstructions returns how many instructions the superinstruction pass
// eliminated across the program (0 when compiled with NoFuse).
func (p *Program) FusedInstructions() int {
	n := 0
	for _, pc := range p.procs {
		n += pc.fused
	}
	return n
}

// costTables returns the per-proc, per-node cost table for m, building it
// on first use.
func (p *Program) costTables(m *cost.Model) [][]float64 {
	p.costMu.Lock()
	defer p.costMu.Unlock()
	if tabs, ok := p.costCache[*m]; ok {
		return tabs
	}
	tabs := make([][]float64, len(p.procs))
	for i, pc := range p.procs {
		tab := make([]float64, pc.proc.G.MaxID()+1)
		for _, n := range pc.proc.G.Nodes() {
			if op, ok := n.Payload.(lower.Op); ok {
				tab[n.ID] = m.NodeCost(op)
			}
		}
		tabs[i] = tab
	}
	if p.costCache == nil {
		p.costCache = make(map[cost.Model][][]float64)
	}
	p.costCache[*m] = tabs
	return tabs
}

// argSlot is one staged call argument, mirroring the tree-walker's binding.
type argSlot struct {
	cell *interp.Value
	arr  *interp.Array
}

// callSite is one suspended caller activation on exec's explicit call
// stack. Calls are handled inside the dispatch loop — push the caller,
// switch the register-cached locals to the callee — instead of recursing
// through runProc, so an activation costs a frame bind plus a register
// reload rather than a Go call, a full preamble, and a flush/reload of the
// step and cost accumulators.
type callSite struct {
	pc *procCode
	f  *frame
	pi int32
	ip int32
}

// errStop unwinds all frames on STOP, like the tree-walker's sentinel.
var errStop = errors.New("stop")

// runState is the per-run mutable state shared by all activations.
type runState struct {
	prog   *Program
	opt    interp.Options
	result *interp.Result
	counts []*interp.Counts
	edges  [][]int64   // flat edge counters per proc index
	costs  [][]float64 // nil when Options.Model is nil
	stack  []interp.Value
	args   []argSlot
	calls  []callSite
	parts  []any
	// paths are the per-proc Ball–Larus counters; nil unless
	// Options.PathSpec is set, and nil entries for uninstrumented procs.
	paths []*interp.PathCounts
	rng   uint64
	steps int64
	max   int64
	depth int
	// lane, when non-nil, supplies frames from the batch lane's arena
	// instead of the shared per-procedure sync.Pools (see batch.go).
	lane *laneArena
}

// recordStopFrame mirrors the tree-walker's: capture an activation's frozen
// position and live DO registers as a STOP unwinds through it, plus the
// (node, path register) prefix of an instrumented activation. VM trip
// slots are allocated in compile order, so sort by test node to match the
// tree-walker's dense ascending scan bit-for-bit.
func (rs *runState) recordStopFrame(pc *procCode, f *frame, pi int, node cfg.NodeID) {
	if pc.path != nil {
		cnt := rs.paths[pi]
		cnt.Partials = append(cnt.Partials, interp.PathPartial{Node: node, Reg: f.vals[pc.pathSlot].I})
	}
	sf := interp.StopFrame{Proc: pc.name, Node: node}
	for slot, rem := range f.trips {
		if rem > 0 {
			sf.Trips = append(sf.Trips, interp.TripReg{Test: pc.tripNodes[slot], Remaining: rem})
		}
	}
	sort.Slice(sf.Trips, func(i, j int) bool { return sf.Trips[i].Test < sf.Trips[j].Test })
	rs.result.StopFrames = append(rs.result.StopFrames, sf)
}

// Run executes the compiled program once under opt. Results are
// bit-identical to interp.Run on the same lowered program. Runs that set
// OnNode are delegated to the tree-walker (the hook's OpDoInit trip
// argument requires the tree's evaluation order).
func (p *Program) Run(opt interp.Options) (*interp.Result, error) {
	if opt.OnNode != nil {
		opt.Engine = interp.EngineTree
		return interp.Run(p.res, opt)
	}
	p, err := p.forSpec(opt.PathSpec)
	if err != nil {
		return nil, err
	}
	rs := &runState{
		prog: p,
		opt:  opt,
		rng:  opt.Seed*2862933555777941757 + 3037000493,
		max:  opt.MaxSteps,
		result: &interp.Result{
			ByProc: make(map[string]*interp.Counts, len(p.procs)),
		},
		counts: make([]*interp.Counts, len(p.procs)),
		edges:  make([][]int64, len(p.procs)),
	}
	if rs.max == 0 {
		rs.max = 500_000_000
	}
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
	if opt.Model != nil {
		rs.costs = p.costTables(opt.Model)
	}
	rs.initPaths()
	err = rs.runProc(p.mainIdx, nil, 0)
	if errors.Is(err, errStop) {
		rs.result.Stopped = true
		err = nil
	}
	rs.result.Steps = rs.steps
	return rs.result, err
}

// initPaths builds the run's path-profiling state from Options.PathSpec:
// one PathCounts per instrumented procedure, exposed on the Result exactly
// like the tree-walker's.
func (rs *runState) initPaths() {
	spec := rs.opt.PathSpec
	if spec == nil {
		return
	}
	rs.paths = make([]*interp.PathCounts, len(rs.prog.procs))
	for i, pc := range rs.prog.procs {
		if pc.path == nil {
			continue
		}
		// Lazy map creation matches the tree-walker: a spec with no
		// instrumented procedures leaves Result.Paths nil.
		if rs.result.Paths == nil {
			rs.result.Paths = make(map[string]*interp.PathCounts)
		}
		pcn := interp.NewPathCounts(pc.path, spec.MultiIter)
		rs.paths[i] = pcn
		rs.result.Paths[pc.name] = pcn
	}
}

// runProc executes one activation of proc pi with the staged args.
func (rs *runState) runProc(pi int, args []argSlot, callLine int) error {
	pc := rs.prog.procs[pi]
	rs.depth++
	if rs.depth > 10000 {
		rs.depth--
		return &interp.RuntimeError{Unit: pc.name, Line: 0, Msg: "call stack overflow (runaway recursion?)"}
	}
	var f *frame
	if rs.lane != nil {
		f = rs.lane.getFrame(pi, pc)
	} else {
		f = pc.getFrame()
	}
	f.callLine = callLine
	for i, pb := range pc.params {
		if pb.isArray {
			f.arrays[pb.slot] = args[i].arr
		} else {
			f.refs[pb.slot] = args[i].cell
		}
	}
	err := rs.exec(pc, f, pi)
	if rs.lane != nil {
		rs.lane.putFrame(pi, f)
	} else {
		pc.putFrame(f)
	}
	rs.depth--
	return err
}

// elemOffset converts 1-based subscripts (as stack values) to a linear
// column-major index, with the tree-walker's exact error messages.
func elemOffset(arr *interp.Array, subs []interp.Value, unit, name string) (int64, error) {
	if len(subs) != len(arr.Dims) {
		return 0, &interp.RuntimeError{Unit: unit, Line: 0,
			Msg: fmt.Sprintf("%s: array has %d dimensions, indexed with %d", name, len(arr.Dims), len(subs))}
	}
	off := int64(0)
	stride := int64(1)
	for d := 0; d < len(subs); d++ {
		s := subs[d].I
		if s < 1 || s > arr.Dims[d] {
			return 0, &interp.RuntimeError{Unit: unit, Line: 0,
				Msg: fmt.Sprintf("%s: subscript %d out of bounds 1..%d in dimension %d", name, s, arr.Dims[d], d+1)}
		}
		off += (s - 1) * stride
		stride *= arr.Dims[d]
	}
	return off, nil
}

// rand draws the next LCG value in [0, 1); identical to the tree-walker.
func (rs *runState) rand() float64 {
	rs.rng = rs.rng*6364136223846793005 + 1442695040888963407
	return float64(rs.rng>>11) / float64(1<<53)
}
