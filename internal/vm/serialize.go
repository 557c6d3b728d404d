package vm

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/lower"
	"repro/internal/wire"
)

// EncodeProc serializes one compiled procedure's bytecode and tables. The
// lowered-proc back-pointer is re-attached by ComposeProgram; everything
// else — including the global callee indices baked into opCall operands —
// is written verbatim, so the blob is only valid for the exact procedure
// set it was compiled against (the artifact cache's link hash keys on
// that).
func (p *Program) EncodeProc(name string, w *wire.Writer) bool {
	i, ok := p.byName[name]
	if !ok {
		return false
	}
	pc := p.procs[i]
	w.String(pc.name)
	w.Uvarint(uint64(len(pc.ins)))
	for _, in := range pc.ins {
		w.U8(uint8(in.op))
		w.Varint(int64(in.a))
		w.Varint(int64(in.b))
		w.Varint(int64(in.c))
		w.Varint(int64(in.d))
		w.Varint(int64(in.e))
		w.Varint(int64(in.f))
	}
	w.Uvarint(uint64(len(pc.consts)))
	for _, v := range pc.consts {
		encodeVMValue(w, v)
	}
	w.Uvarint(uint64(len(pc.strs)))
	for _, s := range pc.strs {
		w.String(s)
	}
	w.Uvarint(uint64(len(pc.arms)))
	for _, a := range pc.arms {
		w.Varint(int64(a.ip))
		w.Varint(int64(a.flat))
	}
	w.Uvarint(uint64(len(pc.lines)))
	for _, l := range pc.lines {
		w.Varint(int64(l))
	}
	w.Uvarint(uint64(len(pc.edgeOff)))
	for _, o := range pc.edgeOff {
		w.Varint(int64(o))
	}
	w.Int(pc.numEdges)
	w.Uvarint(uint64(len(pc.valTemplate)))
	for _, v := range pc.valTemplate {
		encodeVMValue(w, v)
	}
	w.Int(pc.numRefs)
	w.Int(pc.numArrays)
	w.Int(pc.numTrips)
	w.Uvarint(uint64(len(pc.tripNodes)))
	for _, n := range pc.tripNodes {
		w.Varint(int64(n))
	}
	w.Uvarint(uint64(len(pc.params)))
	for _, pb := range pc.params {
		w.Varint(int64(pb.slot))
		w.Bool(pb.isArray)
	}
	w.Uvarint(uint64(len(pc.meta)))
	for _, m := range pc.meta {
		w.String(m.name)
		w.U8(uint8(m.typ))
	}
	w.Varint(int64(pc.entry))
	w.Int(pc.maxStack)
	w.Int(pc.fused)
	return true
}

func encodeVMValue(w *wire.Writer, v interp.Value) {
	w.U8(uint8(v.T))
	w.Varint(v.I)
	w.F64(v.R)
	w.Bool(v.B)
}

func decodeVMValue(r *wire.Reader) interp.Value {
	v := interp.Value{T: lang.Type(r.U8()), I: r.Varint(), R: r.F64(), B: r.Bool()}
	if r.Err() == nil && (v.T < lang.TNone || v.T > lang.TLogical) {
		r.Failf("invalid value type %d", int(v.T))
	}
	return v
}

// decodeProcCode reads one procedure's bytecode, re-attaching proc, and
// validates the tables that the exec loop indexes without bounds checks
// (instruction range of entry, per-node line/edge tables, flat edge-counter
// extents). Anything inconsistent fails the reader; the caller treats it as
// a cache miss and recompiles.
func decodeProcCode(r *wire.Reader, proc *lower.Proc) *procCode {
	pc := &procCode{proc: proc}
	pc.name = r.String()
	if r.Err() == nil && pc.name != proc.G.Name {
		r.Failf("vm blob is for %q, lowered proc is %q", pc.name, proc.G.Name)
		return pc
	}
	ni := r.Count(7)
	pc.ins = make([]instr, 0, ni)
	for i := 0; i < ni; i++ {
		in := instr{
			op: opcode(r.U8()),
			a:  int32(r.Varint()),
			b:  int32(r.Varint()),
			c:  int32(r.Varint()),
			d:  int32(r.Varint()),
			e:  int32(r.Varint()),
			f:  int32(r.Varint()),
		}
		if r.Err() != nil {
			return pc
		}
		if in.op > opActivateGoto {
			r.Failf("invalid opcode %d", int(in.op))
			return pc
		}
		pc.ins = append(pc.ins, in)
	}
	nc := r.Count(4)
	pc.consts = make([]interp.Value, 0, nc)
	for i := 0; i < nc; i++ {
		pc.consts = append(pc.consts, decodeVMValue(r))
	}
	ns := r.Count(1)
	pc.strs = make([]string, 0, ns)
	for i := 0; i < ns; i++ {
		pc.strs = append(pc.strs, r.String())
	}
	na := r.Count(2)
	pc.arms = make([]arm, 0, na)
	for i := 0; i < na; i++ {
		a := arm{ip: int32(r.Varint()), flat: int32(r.Varint())}
		if r.Err() != nil {
			return pc
		}
		if a.ip < 0 || int(a.ip) >= len(pc.ins) {
			r.Failf("arm target %d outside %d instructions", a.ip, len(pc.ins))
			return pc
		}
		pc.arms = append(pc.arms, a)
	}
	maxID := int(proc.G.MaxID())
	nl := r.Count(1)
	if r.Err() == nil && nl != maxID+1 {
		r.Failf("line table has %d entries, graph wants %d", nl, maxID+1)
		return pc
	}
	pc.lines = make([]int32, nl)
	for i := 0; i < nl; i++ {
		pc.lines[i] = int32(r.Varint())
	}
	ne := r.Count(1)
	if r.Err() == nil && ne != maxID+1 {
		r.Failf("edge offset table has %d entries, graph wants %d", ne, maxID+1)
		return pc
	}
	pc.edgeOff = make([]int32, ne)
	for i := 0; i < ne; i++ {
		pc.edgeOff[i] = int32(r.Varint())
	}
	pc.numEdges = r.Int()
	if r.Err() != nil {
		return pc
	}
	if pc.numEdges < 0 {
		r.Failf("negative edge count %d", pc.numEdges)
		return pc
	}
	for id := cfg.NodeID(1); id <= proc.G.MaxID(); id++ {
		off := int(pc.edgeOff[id])
		n := len(proc.G.OutEdges(id))
		if off < 0 || off+n > pc.numEdges {
			r.Failf("edge offsets of node %d (%d+%d) exceed %d flat counters", id, off, n, pc.numEdges)
			return pc
		}
	}
	nv := r.Count(4)
	pc.valTemplate = make([]interp.Value, 0, nv)
	for i := 0; i < nv; i++ {
		pc.valTemplate = append(pc.valTemplate, decodeVMValue(r))
	}
	pc.numRefs = r.Int()
	pc.numArrays = r.Int()
	pc.numTrips = r.Int()
	if r.Err() != nil {
		return pc
	}
	if pc.numRefs < 0 || pc.numArrays < 0 || pc.numTrips < 0 {
		r.Failf("negative frame extent (%d refs, %d arrays, %d trips)", pc.numRefs, pc.numArrays, pc.numTrips)
		return pc
	}
	nt := r.Count(1)
	if r.Err() == nil && nt != pc.numTrips {
		r.Failf("trip node table has %d entries, want %d", nt, pc.numTrips)
		return pc
	}
	pc.tripNodes = make([]cfg.NodeID, 0, nt)
	for i := 0; i < nt; i++ {
		pc.tripNodes = append(pc.tripNodes, cfg.DecodeNodeID(r, proc.G))
	}
	np := r.Count(2)
	if r.Err() == nil && np != len(proc.Unit.Params) {
		r.Failf("param table has %d entries, unit wants %d", np, len(proc.Unit.Params))
		return pc
	}
	pc.params = make([]paramBind, 0, np)
	for i := 0; i < np; i++ {
		pb := paramBind{slot: int32(r.Varint()), isArray: r.Bool()}
		if r.Err() != nil {
			return pc
		}
		lim := pc.numRefs
		if pb.isArray {
			lim = pc.numArrays
		}
		if pb.slot < 0 || int(pb.slot) >= lim {
			r.Failf("param %d slot %d out of range", i, pb.slot)
			return pc
		}
		pc.params = append(pc.params, pb)
	}
	nm := r.Count(2)
	pc.meta = make([]arrayMeta, 0, nm)
	for i := 0; i < nm; i++ {
		m := arrayMeta{name: r.String(), typ: lang.Type(r.U8())}
		if r.Err() == nil && (m.typ < lang.TNone || m.typ > lang.TLogical) {
			r.Failf("invalid array element type %d", int(m.typ))
		}
		if r.Err() != nil {
			return pc
		}
		pc.meta = append(pc.meta, m)
	}
	pc.entry = int32(r.Varint())
	pc.maxStack = r.Int()
	pc.fused = r.Int()
	if r.Err() != nil {
		return pc
	}
	if pc.entry < 0 || int(pc.entry) >= len(pc.ins) {
		r.Failf("entry %d outside %d instructions", pc.entry, len(pc.ins))
		return pc
	}
	if pc.maxStack < 0 || pc.fused < 0 {
		r.Failf("negative stack/fusion extent (%d, %d)", pc.maxStack, pc.fused)
		return pc
	}
	return pc
}

// DecodeProcCheck decodes one procedure blob purely for validation — fuzz
// and corruption tests use it to prove arbitrary bytes produce a typed
// error, never a panic. The decoded code is discarded.
func DecodeProcCheck(blob []byte, proc *lower.Proc) error {
	r := wire.NewReader(blob)
	decodeProcCode(r, proc)
	if err := r.Err(); err != nil {
		return err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("vm blob has %d trailing bytes", r.Remaining())
	}
	return nil
}

// ComposeProgram assembles a Program from per-procedure blobs, compiling
// afresh (and fusing) any procedure whose blob is absent or rejects.
// Returned misses name the procedures that had to be compiled — including
// decode rejections — so the caller can re-save them. A compile error (the
// program is outside the VM subset) is returned exactly as Compile would
// return it.
func ComposeProgram(res *lower.Result, blobs map[string][]byte) (*Program, []string, error) {
	if res.Main == nil {
		return nil, nil, fmt.Errorf("vm: program has no main unit")
	}
	names := make([]string, 0, len(res.Procs))
	for name := range res.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	p := &Program{res: res, byName: make(map[string]int, len(names))}
	for i, name := range names {
		p.byName[name] = i
	}
	var missed []string
	for _, name := range names {
		if blob, ok := blobs[name]; ok {
			r := wire.NewReader(blob)
			pc := decodeProcCode(r, res.Procs[name])
			if r.Err() == nil && r.Remaining() == 0 {
				p.procs = append(p.procs, pc)
				continue
			}
		}
		pc, err := compileProc(res, res.Procs[name], p.byName, false, nil)
		if err != nil {
			return nil, nil, err
		}
		pc.fuse()
		p.procs = append(p.procs, pc)
		missed = append(missed, name)
	}
	p.mainIdx = p.byName[res.Main.G.Name]
	return p, missed, nil
}
