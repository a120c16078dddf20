// Fused multi-class IR evaluation: every weapon-class lane analyzes one
// file in a single traversal of its lowered form. Each lane is a fully
// configured Analyzer — its candidate list, memo tables, shared-cache
// bookkeeping and step count keep per-(file, class) granularity — but the
// instruction tape is interpreted once, carrying fval cells (one taint
// Value per lane, collapsed to a single shared Value while lanes agree)
// instead of one scalar Value per pass.
//
// The contract is byte-identity: after a successful fused pass, every
// lane's candidates, step count and pending summaries equal what the same
// Analyzer would produce running FileIR alone. That holds because fused
// execution is a lockstep product construction: lanes only diverge at
// class-dependent points (sanitizer sets, entry points, sinks, per-lane
// memo and shared-cache hits), and at those points the evaluation splits
// into per-lane values or narrowed sub-masks that reproduce each lane's
// scalar semantics exactly — including join's slice-identity fast paths,
// because a uniform cell holds one Value playing the role of the
// isomorphic per-lane values, and a spilled cell holds each lane's own
// value with its slice identity preserved by struct copying.
//
// Divergence the product cannot express cheaply — a lane exhausting its
// step budget, or the cooperative stop — aborts the whole pass: FileIR
// returns false, lane state is meaningless, and the caller must fall back
// to unfused per-class evaluation (the scheduler's demotion path), which
// then reproduces budget/stop semantics natively.
package taint

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// Fused runs N weapon-class analyzer lanes over one file in a single IR
// traversal. Lanes are indexed by position in the NewFused config slice.
type Fused struct {
	lanes []*Analyzer
	n     int
	full  laneMask

	astFile         *ast.File
	prov            *irProvider
	resolver        FuncResolver
	disableInlining bool
	// budget and stop are shared by every lane (the scheduler builds all
	// lane configs from one task template); per-lane step counts are still
	// tracked exactly, and the pass aborts as soon as the furthest lane
	// would exceed the budget.
	budget int
	stop   *atomic.Bool

	// Lazily memoized name → lane-mask indexes: which lanes treat a name as
	// a sanitizer / entry point / sink. These make class dispatch at call
	// sites a bitwise operation instead of N set lookups per instruction.
	sanM      map[string]laneMask
	sanMethM  map[string]laneMask
	epFnM     map[string]laneMask
	epVarM    map[string]laneMask
	fnSinkM   map[string]laneMask
	methSinkM map[string]laneMask

	// Step accounting: ctxSteps counts instructions charged to every lane
	// in ctxMask since the last flush; maxBase is the largest per-lane step
	// count among ctxMask lanes at that flush. The pass aborts when
	// maxBase+ctxSteps would push any lane past the budget.
	ctxMask  laneMask
	ctxSteps int
	maxBase  int
	pollCtr  int
	aborted  bool
}

// NewFused builds a fused evaluator with one analyzer lane per config. All
// configs must agree on Resolver, DisableInlining, MaxCallDepth, MaxSteps
// and Stop; per-class fields (Class, sanitizers, entry points, sinks,
// Shared) vary freely.
func NewFused(cfgs []Config) *Fused {
	lanes := make([]*Analyzer, len(cfgs))
	for i, c := range cfgs {
		lanes[i] = New(c)
	}
	fz := &Fused{
		lanes:     lanes,
		n:         len(cfgs),
		full:      fullMask(len(cfgs)),
		sanM:      make(map[string]laneMask),
		sanMethM:  make(map[string]laneMask),
		epFnM:     make(map[string]laneMask),
		epVarM:    make(map[string]laneMask),
		fnSinkM:   make(map[string]laneMask),
		methSinkM: make(map[string]laneMask),
	}
	if len(cfgs) > 0 {
		fz.resolver = cfgs[0].Resolver
		fz.disableInlining = cfgs[0].DisableInlining
		fz.budget = lanes[0].cfg.MaxSteps
		fz.stop = cfgs[0].Stop
	}
	return fz
}

// Lanes reports the number of lanes.
func (fz *Fused) Lanes() int { return fz.n }

// Candidates returns lane l's findings after a successful FileIR.
func (fz *Fused) Candidates(l int) []*Candidate { return fz.lanes[l].cands }

// Steps returns lane l's exact step count — what the lane's unfused run
// would have counted.
func (fz *Fused) Steps(l int) int { return fz.lanes[l].steps }

// SharedHits returns lane l's shared-summary cache hits.
func (fz *Fused) SharedHits(l int) int { return fz.lanes[l].sharedHits }

// SharedMisses returns lane l's shared-summary cache misses.
func (fz *Fused) SharedMisses(l int) int { return fz.lanes[l].sharedMisses }

// TransferHits returns lane l's summary transfer-function applications.
func (fz *Fused) TransferHits(l int) int { return fz.lanes[l].transferHits }

// PendingShared returns lane l's summaries awaiting commit.
func (fz *Fused) PendingShared(l int) []PendingSummary { return fz.lanes[l].pending }

// fframe is one function activation of the fused interpreter: the active
// lane mask, the fused register file, the fused environment and the fused
// return accumulator.
type fframe struct {
	act  laneMask
	regs *[]fval
	env  *fenv
	ret  fval
}

func (fr *fframe) valF(r ir.Reg) fval {
	if r < 0 {
		return fval{}
	}
	return (*fr.regs)[r]
}

// fregPool recycles fused register files across frames and files. Boxes at
// rest are zero over their whole capacity: newFrame only exposes [0:n) and
// releaseFrame scrubs exactly that window, so reslicing never surfaces a
// stale fval (or keeps one reachable by the GC).
var fregPool = sync.Pool{New: func() any { b := make([]fval, 0, 64); return &b }}

func (fz *Fused) newFrame(n int, act laneMask) *fframe {
	bp := fregPool.Get().(*[]fval)
	if b := *bp; cap(b) >= n {
		*bp = b[:n]
	} else {
		*bp = make([]fval, n)
	}
	return &fframe{act: act, regs: bp, env: newFenv()}
}

func (fz *Fused) releaseFrame(fr *fframe) {
	b := *fr.regs
	for i := range b {
		b[i] = fval{}
	}
	fregPool.Put(fr.regs)
	fr.regs = nil
}

// FileIR analyzes f through its lowered form fir with every lane at once.
// It returns false when the pass aborted (a lane hitting the step budget,
// or the cooperative stop flag): per-lane state is then meaningless and the
// caller must re-run the file's classes through unfused per-class FileIR.
func (fz *Fused) FileIR(f *ast.File, fir *ir.File, prov ir.Provider) bool {
	for _, a := range fz.lanes {
		a.file = f
		a.cands = a.cands[:0]
		a.seen = make(map[string]bool)
		a.steps = 0
		a.exhausted = false
		a.stopped = false
		a.fill = nil
		a.pending = nil
		a.sharedHits = 0
		a.sharedMisses = 0
		a.transferHits = 0
	}
	fz.astFile = f
	fz.prov = &irProvider{file: fir, prov: prov}
	fz.aborted = false
	fz.ctxSteps = 0
	fz.pollCtr = 0
	fz.setMask(fz.full)

	fr := fz.newFrame(fir.Top.NumRegs, fz.full)
	fz.runRegionF(fir.Top.Body, fr)
	fz.releaseFrame(fr)

	// Uncalled-function pass, in the same source order as the scalar engine.
	for _, fn := range fir.Funcs {
		if fz.aborted {
			return false
		}
		// Call-stack state is lockstep across lanes at top level, so one
		// representative decides the analyzing skip for all.
		if fn.Decl == nil || fn.Decl.Body == nil || fz.lanes[0].analyzing[fn.Decl] {
			continue
		}
		fz.analyzeUncalledF(fn)
	}
	fz.flush()
	return !fz.aborted
}

func (fz *Fused) analyzeUncalledF(fn *ir.Func) {
	act := fz.full
	prev := fz.lanes[act.first()].curFunc
	act.forEach(func(l int) {
		a := fz.lanes[l]
		a.curFunc = fn.Name
		a.analyzing[fn.Decl] = true
	})
	fr := fz.newFrame(fn.NumRegs, act)
	for _, prm := range fn.Params {
		if prm.Default != nil {
			fz.envSet(fr.env, prm.Name, fz.runBlockValueF(prm.Default, fr), act)
		} else {
			fz.envSet(fr.env, prm.Name, fval{}, act)
		}
	}
	fz.runRegionF(fn.Body, fr)
	act.forEach(func(l int) {
		a := fz.lanes[l]
		delete(a.analyzing, fn.Decl)
		a.curFunc = prev
	})
	fz.releaseFrame(fr)
}

// ---------------------------------------------------------------------------
// Step accounting
// ---------------------------------------------------------------------------

// stepF charges one instruction to every lane in the current mask. It
// returns false — aborting the pass — as soon as the furthest lane would
// exceed the budget, so no lane's exact count ever passes the point where
// its unfused run would have degraded.
func (fz *Fused) stepF() bool {
	if fz.aborted {
		return false
	}
	fz.ctxSteps++
	if fz.budget > 0 && fz.maxBase+fz.ctxSteps > fz.budget {
		fz.aborted = true
		return false
	}
	if fz.stop != nil {
		if fz.pollCtr++; fz.pollCtr&63 == 0 && fz.stop.Load() {
			fz.aborted = true
			return false
		}
	}
	return true
}

// flush folds the accumulated context steps into each active lane's exact
// per-lane counter.
func (fz *Fused) flush() {
	if fz.ctxSteps != 0 {
		n := fz.ctxSteps
		fz.ctxMask.forEach(func(l int) { fz.lanes[l].steps += n })
		fz.ctxSteps = 0
		fz.maxBase += n
	}
}

// setMask flushes and switches the charging context to m.
func (fz *Fused) setMask(m laneMask) {
	fz.flush()
	fz.ctxMask = m
	fz.syncBase()
}

// syncBase recomputes maxBase from the current lanes' counters (needed
// after per-lane charges such as shared-summary replays).
func (fz *Fused) syncBase() {
	mb := 0
	fz.ctxMask.forEach(func(l int) {
		if s := fz.lanes[l].steps; s > mb {
			mb = s
		}
	})
	fz.maxBase = mb
}

// ---------------------------------------------------------------------------
// Fused environment
// ---------------------------------------------------------------------------

// fcell is one variable binding across lanes: present marks the lanes whose
// scalar environment holds the binding at all (absent lanes read clean and
// are eligible for branch-merge writes), v carries the per-lane values.
// Invariant: v.mask ⊆ present.
type fcell struct {
	present laneMask
	v       fval
}

// fenv is the fused variable environment. written tracks per-lane write
// masks inside switch arms (nil elsewhere), mirroring env.written.
type fenv struct {
	vars    map[string]fcell
	written map[string]laneMask
}

func newFenv() *fenv {
	return &fenv{vars: make(map[string]fcell)}
}

func copyFcells(m map[string]fcell) map[string]fcell {
	out := make(map[string]fcell, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func oneLane(l int) laneMask { return laneMask{}.with(l) }

// restrictF clamps an fval's taint mask to m (the value payload is shared;
// out-of-mask lanes simply never read it).
func restrictF(v fval, m laneMask) fval {
	v.mask = v.mask.and(m)
	return v
}

// envGet reads a binding for the lanes in act, mirroring env.get per lane:
// present lanes see their value, absent lanes see clean.
func (fz *Fused) envGet(e *fenv, name string, act laneMask) fval {
	c, ok := e.vars[name]
	if !ok {
		return fval{}
	}
	if act.andNot(c.present).empty() {
		return restrictF(c.v, act)
	}
	if c.v.segs == nil && zeroValue(c.v.uni) {
		// Absent lanes read the zero Value; a bottom uniform cell is
		// indistinguishable from it under merge and join.
		return fval{}
	}
	b := fvalParts{act: act}
	b.addF(c.present.and(act), c.v)
	return b.finish()
}

// blendCell overlays v onto c for the lanes in m, keeping other present
// lanes' values.
func (fz *Fused) blendCell(c fcell, v fval, m laneMask) fcell {
	b := fvalParts{act: c.present.or(m)}
	b.addF(m, v)
	b.addF(c.present.andNot(m), c.v)
	return fcell{present: c.present.or(m), v: b.finish()}
}

// envSet overwrites the binding for the lanes in m, mirroring env.set.
func (fz *Fused) envSet(e *fenv, name string, v fval, m laneMask) {
	c, ok := e.vars[name]
	if !ok || c.present.andNot(m).empty() {
		e.vars[name] = fcell{present: m, v: restrictF(v, m)}
	} else {
		e.vars[name] = fz.blendCell(c, v, m)
	}
	if e.written != nil {
		e.written[name] = e.written[name].or(m)
	}
}

// envMergeSet joins v into the binding for the lanes in m, mirroring
// env.mergeSet per lane.
func (fz *Fused) envMergeSet(e *fenv, name string, v fval, m laneMask) {
	c, ok := e.vars[name]
	switch {
	case !ok:
		// join(clean, v) is v, identity preserved.
		e.vars[name] = fcell{present: m, v: restrictF(v, m)}
	case c.present.eq(m) && c.v.segs == nil && v.segs == nil:
		e.vars[name] = fcell{present: m, v: fuseUniform(join(c.v.uni, v.uni), m)}
	default:
		b := fvalParts{act: c.present.or(m)}
		b.addF(c.present.andNot(m), c.v)
		v.forEachSeg(m, func(g laneMask, vv Value) {
			if ab := g.andNot(c.present); !ab.empty() {
				b.addV(ab, join(Value{}, vv))
			}
			c.v.forEachSeg(g.and(c.present), func(g2 laneMask, cv Value) {
				b.addV(g2, join(cv, vv))
			})
		})
		e.vars[name] = fcell{present: c.present.or(m), v: b.finish()}
	}
	if e.written != nil {
		e.written[name] = e.written[name].or(m)
	}
}

// envMergeFrom applies a branch snapshot, mirroring env.mergeFromExcept per
// lane: tainted snapshot lanes join into the current value, untainted ones
// set only where the lane's binding is absent. skip carries per-binding
// kill masks (nil outside switch joins). Like the scalar mergeFromExcept,
// it writes bindings directly and never marks written.
func (fz *Fused) envMergeFrom(e *fenv, snap map[string]fcell, skip map[string]laneMask, act laneMask) {
	for k, sv := range snap {
		apply := act.and(sv.present)
		if skip != nil {
			apply = apply.andNot(skip[k])
		}
		if apply.empty() {
			continue
		}
		tm := sv.v.mask.and(apply)
		cur, ok := e.vars[k]
		if !ok {
			e.vars[k] = fcell{present: apply, v: restrictF(sv.v, apply)}
			continue
		}
		um := apply.andNot(tm).andNot(cur.present)
		if tm.empty() {
			if !um.empty() {
				e.vars[k] = fz.blendCell(cur, sv.v, um)
			}
			continue
		}
		if sv.v.segs == nil && cur.v.segs == nil && tm.eq(apply) && cur.present.eq(apply) {
			// Uniform join across exactly the applied lanes.
			e.vars[k] = fcell{present: apply, v: fuseUniform(join(cur.v.uni, sv.v.uni), apply)}
			continue
		}
		// Group-wise joins: the mask grows by tm (a join with a tainted value
		// is tainted), handled by addV's taint bits.
		b := fvalParts{act: cur.present.or(tm).or(um)}
		b.addF(cur.present.andNot(tm), cur.v)
		sv.v.forEachSeg(tm, func(g laneMask, svv Value) {
			if ab := g.andNot(cur.present); !ab.empty() {
				b.addV(ab, join(Value{}, svv))
			}
			cur.v.forEachSeg(g.and(cur.present), func(g2 laneMask, cv Value) {
				b.addV(g2, join(cv, svv))
			})
		})
		b.addF(um, sv.v)
		e.vars[k] = fcell{present: cur.present.or(tm).or(um), v: b.finish()}
	}
}

// ---------------------------------------------------------------------------
// Regions and blocks
// ---------------------------------------------------------------------------

func (fz *Fused) runRegionF(r *ir.Region, fr *fframe) {
	if r == nil || fz.aborted {
		return
	}
	switch r.Kind {
	case ir.RBasic:
		fz.runBlockF(r.Blk, fr)
	case ir.RSeq:
		for _, k := range r.Kids {
			if fz.aborted {
				return
			}
			fz.runRegionF(k, fr)
		}
	case ir.RIf:
		e := fr.env
		base := copyFcells(e.vars)
		fz.runRegionF(r.Then, fr)
		thenSnap := copyFcells(e.vars)
		e.vars = base
		if r.Else != nil {
			fz.runRegionF(r.Else, fr)
		}
		fz.envMergeFrom(e, thenSnap, nil, fr.act)
	case ir.RLoop2:
		fz.runRegionF(r.Body, fr)
		fz.runRegionF(r.Body, fr)
	case ir.RForLoop:
		fz.runRegionF(r.Body, fr)
		if r.Post != nil && !fz.aborted {
			fz.runBlockF(r.Post, fr)
		}
		fz.runRegionF(r.Body, fr)
	case ir.RSwitch:
		fz.runSwitchF(r, fr)
	}
}

// runSwitchF is the fused counterpart of runSwitch, with the kill set
// computed per lane as mask algebra: a binding's pre-switch taint dies in
// exactly the lanes where every arm overwrote it with an untainted value.
func (fz *Fused) runSwitchF(r *ir.Region, fr *fframe) {
	e := fr.env
	act := fr.act
	base := copyFcells(e.vars)
	savedWritten := e.written
	snaps := make([]map[string]fcell, 0, len(r.Cases))
	writes := make([]map[string]laneMask, 0, len(r.Cases))
	for _, c := range r.Cases {
		e.vars = copyFcells(base)
		e.written = make(map[string]laneMask)
		if c.Cond != nil {
			fz.runBlockF(c.Cond, fr)
		}
		fz.runRegionF(c.Body, fr)
		snaps = append(snaps, copyFcells(e.vars))
		writes = append(writes, e.written)
	}
	e.vars = base
	e.written = savedWritten

	var killed map[string]laneMask
	if r.HasDefault && len(writes) > 0 {
		for k, wrote := range writes[0] {
			for _, w := range writes[1:] {
				wrote = wrote.and(w[k])
				if wrote.empty() {
					break
				}
			}
			cand := wrote.and(e.vars[k].v.mask).and(act)
			if cand.empty() {
				continue
			}
			for _, s := range snaps {
				cand = cand.andNot(s[k].v.mask)
				if cand.empty() {
					break
				}
			}
			if cand.empty() {
				continue
			}
			if killed == nil {
				killed = make(map[string]laneMask)
			}
			killed[k] = cand
		}
	}
	for k, km := range killed {
		cur := e.vars[k]
		allUniform := true
		for _, s := range snaps {
			sc := s[k]
			if sc.v.segs != nil || !km.andNot(sc.present).empty() {
				allUniform = false
				break
			}
		}
		if allUniform && cur.v.segs == nil && cur.present.eq(km) {
			v := snaps[0][k].v.uni
			for _, s := range snaps[1:] {
				v = join(v, s[k].v.uni)
			}
			e.vars[k] = fcell{present: km, v: fuseUniform(v, km)}
			continue
		}
		// Group km by the joint segmentation of every snapshot's cell; each
		// group's join chain runs once and the result is shared by its lanes.
		parts := []laneMask{km}
		for _, s := range snaps {
			parts = refineCell(parts, s[k])
		}
		b := fvalParts{act: cur.present}
		b.addF(cur.present.andNot(km), cur.v)
		for _, p := range parts {
			l := p.first()
			var v Value
			if sc := snaps[0][k]; sc.present.has(l) {
				v = sc.v.get(l)
			}
			for _, s := range snaps[1:] {
				var sv Value
				if sc := s[k]; sc.present.has(l) {
					sv = sc.v.get(l)
				}
				v = join(v, sv)
			}
			b.addV(p, v)
		}
		e.vars[k] = fcell{present: cur.present, v: b.finish()}
	}
	for _, s := range snaps {
		fz.envMergeFrom(e, s, killed, act)
	}
}

func (fz *Fused) runBlockF(b *ir.Block, fr *fframe) {
	if b == nil {
		return
	}
	for i := range b.Instrs {
		if !fz.stepF() {
			return
		}
		fz.runInstrF(&b.Instrs[i], fr)
	}
}

func (fz *Fused) runBlockValueF(b *ir.Block, fr *fframe) fval {
	if b == nil {
		return fval{}
	}
	fz.runBlockF(b, fr)
	return fr.valF(b.Result)
}

// ---------------------------------------------------------------------------
// Fused value operations
// ---------------------------------------------------------------------------

// fmerge is per-lane Value.merge. Uniform inputs merge once on the shared
// Value — the result each lane's isomorphic merge would build.
func (fz *Fused) fmerge(a, b fval, act laneMask) fval {
	if a.segs == nil && b.segs == nil {
		return fuseUniform(a.uni.merge(b.uni), act)
	}
	out := fvalParts{act: act}
	a.forEachSeg(act, func(g laneMask, av Value) {
		b.forEachSeg(g, func(g2 laneMask, bv Value) {
			out.addV(g2, av.merge(bv))
		})
	})
	return out.finish()
}

func (fz *Fused) fmergeAll(args []fval, act laneMask) fval {
	out := fval{}
	for _, v := range args {
		out = fz.fmerge(out, v, act)
	}
	return out
}

// withStep appends a trace step to every tainted lane, copy-on-write so
// stored fvals sharing a segs slice are never mutated. A segment straddling
// the tainted mask splits at the boundary; the in-mask piece gets one
// appended trace (the same append each of its lanes would perform alone).
func (fz *Fused) withStep(v fval, act laneMask, pos token.Position, desc string, node ast.Node) fval {
	tm := v.mask.and(act)
	if tm.empty() {
		return v
	}
	st := Step{Pos: pos, Desc: desc, Node: node}
	if v.segs == nil {
		v.uni.Trace = append(v.uni.Trace, st)
		return v
	}
	segs := make([]fvalSeg, 0, len(v.segs)+1)
	for _, s := range v.segs {
		in := s.m.and(tm)
		if in.empty() {
			segs = append(segs, s)
			continue
		}
		if rest := s.m.andNot(tm); !rest.empty() {
			segs = append(segs, fvalSeg{m: rest, v: s.v})
		}
		sv := s.v
		sv.Trace = append(sv.Trace, st)
		segs = append(segs, fvalSeg{m: in, v: sv})
	}
	v.segs = segs
	return v
}

// refineCell splits parts along a cell's segmentation, with the cell's
// absent lanes forming their own group (they read the zero Value). Parts
// stay disjoint.
func refineCell(parts []laneMask, c fcell) []laneMask {
	out := make([]laneMask, 0, len(parts)+2)
	for _, p := range parts {
		if ab := p.andNot(c.present); !ab.empty() {
			out = append(out, ab)
		}
		c.v.forEachSeg(p.and(c.present), func(g laneMask, _ Value) { out = append(out, g) })
	}
	return out
}

// fvalParts assembles a result value from disjoint lane pieces: fused
// sub-results grafted with addF, single shared Values attached with addV.
// The taint mask accumulates by mask algebra — addF clamps each piece's own
// mask to its lanes, addV uses the Value's taint bit — never by re-deriving
// from stored Values, so restriction-clamped masks stay clamped. finish
// collapses back to a uniform cell when one piece covers every active lane.
type fvalParts struct {
	act  laneMask
	mask laneMask
	segs []fvalSeg
}

// addF grafts v's lanes m into the result.
func (b *fvalParts) addF(m laneMask, v fval) {
	if m.empty() {
		return
	}
	b.mask = b.mask.or(v.mask.and(m))
	v.forEachSeg(m, func(g laneMask, val Value) {
		if !zeroValue(val) {
			b.segs = append(b.segs, fvalSeg{m: g, v: val})
		}
	})
}

// addV attaches one shared Value for the lanes in m.
func (b *fvalParts) addV(m laneMask, val Value) {
	if m.empty() {
		return
	}
	if val.Tainted {
		b.mask = b.mask.or(m)
	}
	if !zeroValue(val) {
		b.segs = append(b.segs, fvalSeg{m: m, v: val})
	}
}

func (b *fvalParts) finish() fval {
	if len(b.segs) == 0 {
		return fval{mask: b.mask}
	}
	if len(b.segs) == 1 && b.act.andNot(b.segs[0].m).empty() {
		return fval{mask: b.mask, uni: b.segs[0].v}
	}
	return fval{mask: b.mask, segs: b.segs}
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

func (fz *Fused) runInstrF(ins *ir.Instr, fr *fframe) {
	e := fr.env
	regs := *fr.regs
	switch ins.Op {
	case ir.OpConst:
		regs[ins.Dst] = fval{}
	case ir.OpCopy:
		regs[ins.Dst] = fr.valF(ins.A)
	case ir.OpLoadVar:
		em := fz.epVarMaskFor(ins.Name).and(fr.act)
		if em.empty() {
			regs[ins.Dst] = fz.envGet(e, ins.Name, fr.act)
			break
		}
		ev := fuseUniform(Value{
			Tainted: true,
			Sources: []Source{{Name: "$" + ins.Name, Pos: ins.Pos()}},
			Trace:   []Step{{Pos: ins.Pos(), Desc: "entry point $" + ins.Name, Node: ins.Node}},
		}, em)
		if em.eq(fr.act) {
			regs[ins.Dst] = ev
		} else {
			rest := fr.act.andNot(em)
			b := fvalParts{act: fr.act}
			b.addF(em, ev)
			b.addF(rest, fz.envGet(e, ins.Name, rest))
			regs[ins.Dst] = b.finish()
		}
	case ir.OpLoadKey:
		regs[ins.Dst] = fz.envGet(e, ins.Name, fr.act)
	case ir.OpIndex:
		regs[ins.Dst] = fz.runIndexF(ins, fr)
	case ir.OpUnion:
		var v fval
		for _, r := range ins.Args {
			v = fz.fmerge(v, fr.valF(r), fr.act)
		}
		regs[ins.Dst] = v
	case ir.OpConcat:
		v := fz.fmerge(fr.valF(ins.A), fr.valF(ins.B), fr.act)
		regs[ins.Dst] = fz.withStep(v, fr.act, ins.Pos(), "concatenation", ins.Node)
	case ir.OpInterp:
		var v fval
		for _, r := range ins.Args {
			v = fz.fmerge(v, fr.valF(r), fr.act)
		}
		regs[ins.Dst] = fz.withStep(v, fr.act, ins.Pos(), "string interpolation", ins.Node)
	case ir.OpAssign:
		rhs := fr.valF(ins.A)
		var v fval
		switch ins.AKind {
		case ir.AssignAppend:
			if ins.LV != nil && ins.LV.Kind == ir.LVVar {
				v = fz.fmerge(fz.envGet(e, ins.LV.Name, fr.act), rhs, fr.act)
			} else {
				v = rhs
			}
			v = fz.withStep(v, fr.act, ins.Pos(), "append assignment", ins.Node)
		case ir.AssignPlain:
			v = fz.withStep(rhs, fr.act, ins.Pos(), "assignment", ins.Node)
		default:
			v = fval{}
		}
		fz.assignLVF(ins.LV, v, e, fr.act)
		regs[ins.Dst] = v
	case ir.OpAssignTo:
		fz.assignLVF(ins.LV, fr.valF(ins.A), e, fr.act)
	case ir.OpSetVar:
		if ins.A < 0 {
			fz.envSet(e, ins.Name, fval{}, fr.act)
		} else {
			fz.envSet(e, ins.Name, fr.valF(ins.A), fr.act)
		}
	case ir.OpCall:
		regs[ins.Dst] = fz.runCallF(ins, fr)
	case ir.OpMethodCall:
		regs[ins.Dst] = fz.runMethodCallF(ins, fr)
	case ir.OpStaticCall:
		regs[ins.Dst] = fz.runStaticCallF(ins, fr)
	case ir.OpClosure:
		fz.runClosureF(ins, fr)
	case ir.OpPseudoSink:
		v := fr.valF(ins.A)
		m := fz.fnSinkMaskFor(ins.Name).and(fr.act).and(v.mask)
		m.forEach(func(l int) {
			fz.lanes[l].checkPseudoSink(ins.Name, ins.Node, ins.Expr, v.get(l), ins.Pos())
		})
	case ir.OpNamedSink:
		v := fr.valF(ins.A)
		m := fz.fnSinkMaskFor(ins.Name).and(fr.act).and(v.mask)
		m.forEach(func(l int) {
			fz.lanes[l].checkNamedSink(ins.Name, ins.Node, ins.Expr, v.get(l), -1, ins.Pos())
		})
	case ir.OpReturn:
		fr.ret = fz.fmerge(fr.ret, fr.valF(ins.A), fr.act)
	}
}

// runIndexF mirrors runIndex. When only some lanes treat the base variable
// as an entry point, the base block executes under the narrowed non-entry
// mask (those are the only lanes that evaluate it in scalar runs — step
// charges and environment effects included), then the index block runs for
// everyone.
func (fz *Fused) runIndexF(ins *ir.Instr, fr *fframe) fval {
	act := fr.act
	var em laneMask
	if ins.Name != "" {
		em = fz.epVarMaskFor(ins.Name).and(act)
	}
	if em.empty() {
		v := fz.runBlockValueF(ins.XBlk, fr)
		if ins.IBlk != nil {
			fz.runBlockF(ins.IBlk, fr)
		}
		return v
	}
	epVal := func(m laneMask) fval {
		if ins.Name == "_SERVER" && serverKeySafe(ins.Key) {
			return fval{}
		}
		src := fmt.Sprintf("$%s[%s]", ins.Name, ins.Key)
		return fuseUniform(Value{
			Tainted: true,
			Sources: []Source{{Name: src, Pos: ins.Pos()}},
			Trace:   []Step{{Pos: ins.Pos(), Desc: "entry point " + src, Node: ins.Node}},
		}, m)
	}
	if em.eq(act) {
		if ins.IBlk != nil {
			fz.runBlockF(ins.IBlk, fr)
		}
		return epVal(act)
	}
	rest := act.andNot(em)
	fr.act = rest
	fz.setMask(rest)
	base := fz.runBlockValueF(ins.XBlk, fr)
	fr.act = act
	fz.setMask(act)
	if ins.IBlk != nil {
		fz.runBlockF(ins.IBlk, fr)
	}
	if fz.aborted {
		return fval{}
	}
	b := fvalParts{act: act}
	b.addF(em, epVal(em))
	b.addF(rest, base)
	return b.finish()
}

// assignLVF writes through a static assignment target, mirroring assignLV
// per lane.
func (fz *Fused) assignLVF(lv *ir.LValue, v fval, e *fenv, act laneMask) {
	if lv == nil {
		return
	}
	switch lv.Kind {
	case ir.LVVar:
		fz.envSet(e, lv.Name, v, act)
	case ir.LVIndex:
		if tm := v.mask.and(act); !tm.empty() {
			fz.envMergeSet(e, lv.Name, v, tm)
		}
	case ir.LVKey:
		if lv.Strong {
			fz.envSet(e, lv.Name, v, act)
		} else {
			if tm := v.mask.and(act); !tm.empty() {
				fz.envMergeSet(e, lv.Name, v, tm)
			}
			if um := act.andNot(v.mask); !um.empty() {
				fz.envSet(e, lv.Name, v, um)
			}
		}
	case ir.LVList:
		for _, k := range lv.Kids {
			fz.assignLVF(k, v, e, act)
		}
	}
}

// assignToF writes a value through an AST assignment target for the lanes
// in m, mirroring the walker's assignTo (used for builtin out-params and
// by-ref writebacks).
func (fz *Fused) assignToF(lhs ast.Expr, v fval, e *fenv, m laneMask) {
	switch t := lhs.(type) {
	case *ast.Variable:
		fz.envSet(e, t.Name, v, m)
	case *ast.IndexExpr:
		if base := rootVar(t.X); base != "" {
			if tm := v.mask.and(m); !tm.empty() {
				fz.envMergeSet(e, base, v, tm)
			}
		}
	case *ast.PropExpr:
		if key := propKey(t); key != "" {
			if tm := v.mask.and(m); !tm.empty() {
				fz.envMergeSet(e, key, v, tm)
			}
			if um := m.andNot(v.mask); !um.empty() {
				fz.envSet(e, key, v, um)
			}
		}
	case *ast.StaticPropExpr:
		key := "::" + strings.ToLower(t.Class) + "::" + t.Name
		fz.envSet(e, key, v, m)
	case *ast.ListExpr:
		for _, item := range t.Items {
			if item != nil {
				fz.assignToF(item, v, e, m)
			}
		}
	case *ast.ArrayLit:
		for _, item := range t.Items {
			fz.assignToF(item.Value, v, e, m)
		}
	}
}

// ---------------------------------------------------------------------------
// Per-name lane masks
// ---------------------------------------------------------------------------

func (fz *Fused) epVarMaskFor(name string) laneMask {
	if m, ok := fz.epVarM[name]; ok {
		return m
	}
	var m laneMask
	for i, a := range fz.lanes {
		if a.isEntryPointVar(name) {
			m = m.with(i)
		}
	}
	fz.epVarM[name] = m
	return m
}

func (fz *Fused) sanMaskFor(name string) laneMask {
	if m, ok := fz.sanM[name]; ok {
		return m
	}
	var m laneMask
	for i, a := range fz.lanes {
		if a.isSanitizer(name) {
			m = m.with(i)
		}
	}
	fz.sanM[name] = m
	return m
}

func (fz *Fused) sanMethMaskFor(name string) laneMask {
	if m, ok := fz.sanMethM[name]; ok {
		return m
	}
	var m laneMask
	for i, a := range fz.lanes {
		if a.class.IsSanitizerMethod(name) {
			m = m.with(i)
		}
	}
	fz.sanMethM[name] = m
	return m
}

func (fz *Fused) epFnMaskFor(name string) laneMask {
	if m, ok := fz.epFnM[name]; ok {
		return m
	}
	var m laneMask
	for i, a := range fz.lanes {
		if a.class.IsEntryPointFunc(name) {
			m = m.with(i)
		}
	}
	fz.epFnM[name] = m
	return m
}

// fnSinkMaskFor indexes lanes with a non-method sink of this name (also
// what pseudo- and named-sink checks match).
func (fz *Fused) fnSinkMaskFor(name string) laneMask {
	if m, ok := fz.fnSinkM[name]; ok {
		return m
	}
	var m laneMask
	for i, a := range fz.lanes {
		for _, s := range a.allSinks() {
			if !s.Method && s.Name == name {
				m = m.with(i)
				break
			}
		}
	}
	fz.fnSinkM[name] = m
	return m
}

func (fz *Fused) methSinkMaskFor(name string) laneMask {
	if m, ok := fz.methSinkM[name]; ok {
		return m
	}
	var m laneMask
	for i, a := range fz.lanes {
		for _, s := range a.allSinks() {
			if s.Method && s.Name == name {
				m = m.with(i)
				break
			}
		}
	}
	fz.methSinkM[name] = m
	return m
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

// sanitizerValue builds the sanitized result of a plain call: clean, tagged
// with the sanitizer name plus every argument's sanitizer tags (per lane).
// Lanes that agree on every argument share one built Value.
func (fz *Fused) sanitizerValue(name string, args []fval, m laneMask) fval {
	build := func(l int) Value {
		v := clean()
		v.Sanitizers = append(v.Sanitizers, name)
		for _, av := range args {
			v.Sanitizers = append(v.Sanitizers, av.get(l).Sanitizers...)
		}
		return v
	}
	parts := []laneMask{m}
	for _, av := range args {
		parts = refineSegs(parts, av)
	}
	if len(parts) == 1 {
		return fuseUniform(build(m.first()), m)
	}
	b := fvalParts{act: m}
	for _, p := range parts {
		b.addV(p, build(p.first()))
	}
	return b.finish()
}

// checkSinksF runs each masked lane's sink matcher over the call. Lanes
// agreeing on every argument share one materialized []Value.
func (fz *Fused) checkSinksF(m laneMask, name string, method bool, recv string, ins *ir.Instr, args []fval) {
	parts := []laneMask{m}
	for _, av := range args {
		parts = refineSegs(parts, av)
	}
	for _, p := range parts {
		av := make([]Value, len(args))
		l0 := p.first()
		for i, a := range args {
			av[i] = a.get(l0)
		}
		p.forEach(func(l int) {
			fz.lanes[l].checkCallSinks(name, method, recv, ins.Node, ins.ArgExprs(), av, ins.Pos())
		})
	}
}

func (fz *Fused) runCallF(ins *ir.Instr, fr *fframe) fval {
	name := ins.Name
	args := make([]fval, len(ins.Args))
	for i, r := range ins.Args {
		args[i] = fr.valF(r)
	}
	e := fr.env
	b := fvalParts{act: fr.act}
	rem := fr.act

	if sm := fz.sanMaskFor(name).and(rem); !sm.empty() {
		b.addF(sm, fz.sanitizerValue(name, args, sm))
		rem = rem.andNot(sm)
		if rem.empty() {
			return b.finish()
		}
	}
	if em := fz.epFnMaskFor(name).and(rem); !em.empty() {
		b.addF(em, fuseUniform(Value{
			Tainted: true,
			Sources: []Source{{Name: name + "()", Pos: ins.Pos()}},
			Trace:   []Step{{Pos: ins.Pos(), Desc: "entry point " + name + "()", Node: ins.Node}},
		}, em))
		rem = rem.andNot(em)
		if rem.empty() {
			return b.finish()
		}
	}
	if km := fz.fnSinkMaskFor(name).and(rem); !km.empty() {
		fz.checkSinksF(km, name, false, "", ins, args)
	}
	if propagatesTaint(name) {
		v := fz.fmergeAll(args, rem)
		b.addF(rem, fz.withStep(v, rem, ins.Pos(), name+"()", ins.Node))
		return b.finish()
	}
	switch name {
	case "preg_match", "preg_match_all":
		if ax := ins.ArgExprs(); len(ax) >= 3 && len(args) >= 2 {
			fz.assignToF(ax[2], args[1], e, rem)
		}
		b.addF(rem, fval{})
		return b.finish()
	case "parse_str":
		if ax := ins.ArgExprs(); len(ax) >= 2 && len(args) >= 1 {
			fz.assignToF(ax[1], args[0], e, rem)
		}
		b.addF(rem, fval{})
		return b.finish()
	case "extract":
		b.addF(rem, fval{})
		return b.finish()
	case "settype":
		if ax := ins.ArgExprs(); len(ax) >= 1 {
			fz.assignToF(ax[0], fval{}, e, rem)
		}
		b.addF(rem, fval{})
		return b.finish()
	}
	if fn := fz.resolveFuncF(name, rem); fn != nil && fn.Body != nil && !fz.disableInlining {
		b.addF(rem, fz.inlineF(fn, ins.ArgExprs(), args, ins.Pos(), e, rem))
		return b.finish()
	}
	b.addF(rem, fval{})
	return b.finish()
}

func (fz *Fused) runMethodCallF(ins *ir.Instr, fr *fframe) fval {
	recv := fr.valF(ins.A)
	name := ins.Name // lower-cased at lowering time
	args := make([]fval, len(ins.Args))
	for i, r := range ins.Args {
		args[i] = fr.valF(r)
	}
	b := fvalParts{act: fr.act}
	rem := fr.act

	if sm := fz.sanMethMaskFor(name).and(rem); !sm.empty() {
		v := clean()
		v.Sanitizers = append(v.Sanitizers, name)
		b.addF(sm, fuseUniform(v, sm))
		rem = rem.andNot(sm)
		if rem.empty() {
			return b.finish()
		}
	}
	if km := fz.methSinkMaskFor(name).and(rem); !km.empty() {
		fz.checkSinksF(km, name, true, ins.Key, ins, args)
	}
	if m := fz.resolveMethodF(name, rem); m != nil && m.Body != nil && !fz.disableInlining {
		b.addF(rem, fz.inlineF(m, ins.ArgExprs(), args, ins.Pos(), fr.env, rem))
		return b.finish()
	}
	b.addF(rem, fz.fmerge(recv, fz.fmergeAll(args, rem), rem))
	return b.finish()
}

func (fz *Fused) runStaticCallF(ins *ir.Instr, fr *fframe) fval {
	name := strings.ToLower(ins.Name)
	args := make([]fval, len(ins.Args))
	for i, r := range ins.Args {
		args[i] = fr.valF(r)
	}
	b := fvalParts{act: fr.act}
	rem := fr.act

	if sm := fz.sanMethMaskFor(name).and(rem); !sm.empty() {
		v := clean()
		v.Sanitizers = append(v.Sanitizers, name)
		b.addF(sm, fuseUniform(v, sm))
		rem = rem.andNot(sm)
		if rem.empty() {
			return b.finish()
		}
	}
	if km := fz.methSinkMaskFor(name).and(rem); !km.empty() {
		fz.checkSinksF(km, name, true, strings.ToLower(ins.Key), ins, args)
	}
	// Like the scalar engines, resolved static methods inline regardless of
	// the DisableInlining ablation.
	if m := fz.resolveStaticF(ins.Key, ins.Name, rem); m != nil && m.Body != nil {
		b.addF(rem, fz.inlineF(m, ins.ArgExprs(), args, ins.Pos(), fr.env, rem))
		return b.finish()
	}
	b.addF(rem, fz.fmergeAll(args, rem))
	return b.finish()
}

func (fz *Fused) runClosureF(ins *ir.Instr, fr *fframe) {
	cf := ins.Closure
	inner := newFenv()
	for _, u := range cf.Uses {
		fz.envSet(inner, u, fz.envGet(fr.env, u, fr.act), fr.act)
	}
	for _, prm := range cf.Params {
		fz.envSet(inner, prm.Name, fval{}, fr.act)
	}
	cfr := fz.newFrame(cf.NumRegs, fr.act)
	cfr.env = inner
	fz.runRegionF(cf.Body, cfr)
	fz.releaseFrame(cfr)
}

// ---------------------------------------------------------------------------
// Resolution (shared lookup, per-lane fill bookkeeping)
// ---------------------------------------------------------------------------

func (fz *Fused) resolveFuncF(name string, m laneMask) *ast.FunctionDecl {
	m.forEach(func(l int) { fz.lanes[l].noteResolution(name) })
	if fz.astFile != nil {
		if fn, ok := fz.astFile.Funcs[name]; ok && fn.Class == nil {
			return fn
		}
	}
	if fz.resolver != nil {
		return fz.resolver.ResolveFunc(name)
	}
	return nil
}

func (fz *Fused) resolveMethodF(name string, m laneMask) *ast.FunctionDecl {
	m.forEach(func(l int) { fz.lanes[l].noteResolution(name) })
	if fz.astFile != nil {
		for _, cls := range fz.astFile.Classes {
			for _, mm := range cls.Methods {
				if strings.ToLower(mm.Name) == name {
					return mm
				}
			}
		}
	}
	if fz.resolver != nil {
		return fz.resolver.ResolveMethod(name)
	}
	return nil
}

func (fz *Fused) resolveStaticF(class, name string, m laneMask) *ast.FunctionDecl {
	m.forEach(func(l int) {
		if a := fz.lanes[l]; a.fill != nil {
			a.fill.impure = true
		}
	})
	key := strings.ToLower(class) + "::" + strings.ToLower(name)
	if fz.astFile != nil {
		if fn, ok := fz.astFile.Funcs[key]; ok {
			return fn
		}
	}
	return fz.resolveMethodF(strings.ToLower(name), m)
}

// ---------------------------------------------------------------------------
// Inlining
// ---------------------------------------------------------------------------

// shareEligibleF mirrors shareEligible for lane l of a fused argument
// vector.
func (fz *Fused) shareEligibleF(a *Analyzer, args []fval, l int) bool {
	if a.cfg.Shared == nil || a.depth != 0 || len(a.analyzing) != 0 || a.fill != nil {
		return false
	}
	for _, v := range args {
		if !zeroValue(v.get(l)) {
			return false
		}
	}
	return true
}

// fenvLane reads one lane's binding from a fused environment, mirroring
// env.get.
func fenvLane(e *fenv, name string, l int) Value {
	if c, ok := e.vars[name]; ok && c.present.has(l) {
		return c.v.get(l)
	}
	return clean()
}

// consumeSharedF mirrors consumeShared for one lane, replaying the entry's
// candidates and by-ref effects into the lane's analyzer and the fused
// caller environment.
func (fz *Fused) consumeSharedF(a *Analyzer, l int, se *sharedEntry, memoKey string, argExprs []ast.Expr, caller *fenv) Value {
	a.sharedHits++
	a.steps += se.steps
	for _, c := range se.cands {
		cc := *c
		cc.File = a.fileName()
		a.report(&cc)
	}
	lm := oneLane(l)
	for _, br := range se.byref {
		if br.idx < len(argExprs) {
			bv := fval{uni: br.val}
			if br.val.Tainted {
				bv.mask = lm
			}
			fz.assignToF(argExprs[br.idx], bv, caller, lm)
		}
	}
	a.summaries[memoKey] = &summary{returnValue: se.ret}
	return se.ret
}

// finishFillF mirrors finishFill for one lane, reading by-ref out-values
// from the fused callee environment.
func (fz *Fused) finishFillF(a *Analyzer, l int, ret Value, fn *ast.FunctionDecl, inner *fenv) {
	fr := a.fill
	a.fill = nil
	if fr == nil || fr.impure {
		return
	}
	e := &sharedEntry{ret: ret, cands: fr.cands, steps: a.steps - fr.stepsStart}
	for i, p := range fn.Params {
		if p.ByRef {
			e.byref = append(e.byref, byrefOut{idx: i, val: fenvLane(inner, p.Name, l)})
		}
	}
	a.pending = append(a.pending, PendingSummary{Key: fr.key, entry: e})
}

// inlineF applies a user function at a call edge for the lanes in rem.
// Memoized and shared summaries resolve per lane; the lanes left over run
// the callee body together under a narrowed mask — one body evaluation no
// matter how many lanes missed.
func (fz *Fused) inlineF(fn *ast.FunctionDecl, argExprs []ast.Expr, args []fval, callPos token.Position, caller *fenv, rem laneMask) fval {
	// Depth, recursion and call-stack state are lockstep across a frame's
	// lanes (they entered the same chain of bodies), so one representative
	// decides the guard for all.
	rep := fz.lanes[rem.first()]
	if rep.depth >= rep.cfg.MaxCallDepth || rep.analyzing[fn] {
		return fz.fmergeAll(args, rem)
	}

	b := fvalParts{act: rem}

	// Lanes that agree on every argument share one memo key: the key is
	// computed once per argument-equal lane group, not once per lane.
	argParts := []laneMask{rem}
	for _, v := range args {
		argParts = refineSegs(argParts, v)
	}
	partKeys := make([]string, len(argParts))
	laneKey := func(l int) string {
		for i, p := range argParts {
			if p.has(l) {
				if partKeys[i] == "" {
					vals := make([]Value, len(args))
					for j, v := range args {
						vals[j] = v.get(l)
					}
					partKeys[i] = memoKey(fn, vals)
				}
				return partKeys[i]
			}
		}
		return "" // unreachable: argParts partition rem
	}
	retStep := func(v Value) Value {
		if v.Tainted {
			v.Trace = append(append([]Step{}, v.Trace...),
				Step{Pos: callPos, Desc: "return from " + fn.Name + "()"})
		}
		return v
	}

	var hitM laneMask
	rem.forEach(func(l int) {
		a := fz.lanes[l]
		if s, ok := a.summaries[laneKey(l)]; ok {
			if a.fill != nil && s.fillID != a.fill.id {
				a.fill.impure = true
			}
			a.transferHits++
			b.addV(oneLane(l), retStep(s.returnValue))
			hitM = hitM.with(l)
		}
	})
	rem2 := rem.andNot(hitM)
	if rem2.empty() {
		return b.finish()
	}

	// Shared-cache consultation reads exact per-lane step counts.
	fz.flush()
	var sharedM, fillM laneMask
	rem2.forEach(func(l int) {
		a := fz.lanes[l]
		if !fz.shareEligibleF(a, args, l) {
			return
		}
		sk := SummaryKey{Class: a.class.ID, Fn: fn, NArgs: len(args)}
		if se := a.sharedLookup(sk); se != nil {
			a.transferHits++
			b.addV(oneLane(l), retStep(fz.consumeSharedF(a, l, se, laneKey(l), argExprs, caller)))
			sharedM = sharedM.with(l)
			return
		}
		a.sharedMisses++
		a.fillSeq++
		a.fill = &fillFrame{key: sk, id: a.fillSeq, stepsStart: a.steps}
		fillM = fillM.with(l)
	})
	fz.syncBase() // shared replays charged per-lane steps

	missM := rem2.andNot(sharedM)
	if missM.empty() {
		return b.finish()
	}

	cf := fz.prov.funcFor(fn)

	prevMask := fz.ctxMask
	prevFunc := fz.lanes[missM.first()].curFunc
	missM.forEach(func(l int) {
		a := fz.lanes[l]
		a.depth++
		a.analyzing[fn] = true
		a.curFunc = fn.Name
	})

	inner := newFenv()
	cfr := fz.newFrame(cf.NumRegs, missM)
	cfr.env = inner
	fz.setMask(missM)
	for i, prm := range cf.Params {
		switch {
		case i < len(args):
			fz.envSet(inner, prm.Name, args[i], missM)
		case prm.Default != nil:
			fz.envSet(inner, prm.Name, fz.runBlockValueF(prm.Default, cfr), missM)
		default:
			fz.envSet(inner, prm.Name, fval{}, missM)
		}
	}
	fz.runRegionF(cf.Body, cfr)
	ret := cfr.ret

	// Propagate by-ref parameter taint back to caller arguments.
	for i, prm := range cf.Params {
		if prm.ByRef && i < len(argExprs) {
			fz.assignToF(argExprs[i], fz.envGet(inner, prm.Name, missM), caller, missM)
		}
	}

	missM.forEach(func(l int) {
		a := fz.lanes[l]
		a.curFunc = prevFunc
		delete(a.analyzing, fn)
		a.depth--
	})
	fz.setMask(prevMask) // flushes body steps into missM lanes

	// Per-lane memo install and fill completion; lanes sharing a return
	// group share one trace-copied result value (a uniform return over the
	// whole call collapses to a single uniform cell).
	missM.forEach(func(l int) {
		a := fz.lanes[l]
		rv := ret.get(l)
		entry := &summary{returnValue: rv}
		if a.fill != nil {
			entry.fillID = a.fill.id
		}
		a.summaries[laneKey(l)] = entry
		if fillM.has(l) {
			fz.finishFillF(a, l, rv, fn, inner)
		}
	})
	if ret.segs == nil && missM.eq(rem) {
		b.addF(rem, fuseUniform(retStep(ret.uni), rem))
	} else {
		ret.forEachSeg(missM, func(g laneMask, rv Value) {
			b.addV(g, retStep(rv))
		})
	}
	fz.releaseFrame(cfr)
	return b.finish()
}
