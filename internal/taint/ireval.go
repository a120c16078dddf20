// IR evaluation: the taint engine re-hosted on the lowered three-address
// form. FileIR is the drop-in counterpart of File — same configuration,
// same candidate output on unchanged flows — but instead of re-walking the
// syntax tree it interprets the file's instruction tape: taint facts flow
// through registers along the function's CFG regions, branch joins use the
// canonical order-independent join, and user-function calls apply memoized
// summaries as transfer functions at the call edge.
//
// The one deliberate precision improvement over the walker is the
// path-sensitive switch join: when a switch has a default arm and every arm
// overwrites a binding with an untainted value (a sanitizer dominating every
// path), the pre-switch taint is killed instead of leaking through the
// merge. Every other construct reproduces the walker's semantics exactly;
// the differential harness in internal/core pins that equivalence.
package taint

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ir"
	"repro/internal/php/ast"
	"repro/internal/php/token"
)

// irFrame is one function activation on the IR engine: the virtual register
// file, the variable environment and the return-value accumulator.
type irFrame struct {
	regs []Value
	// regBox is the pool box regs was drawn from, returned on frame release.
	regBox *[]Value
	env    *env
	// ret accumulates return-statement values in evaluation order, exactly
	// like the walker's stmts() merge chain.
	ret Value
}

// irRegPool recycles register files across frames, files and tasks.
// Registers are dense contiguous ints from the lowering, so a register file
// is a plain slice; boxes at rest are zero over their whole capacity —
// getIRRegs only exposes [0:n) and putIRRegs scrubs exactly that window, so
// reslicing never surfaces a stale Value or keeps one reachable by the GC.
var irRegPool = sync.Pool{New: func() any { b := make([]Value, 0, 64); return &b }}

func getIRRegs(n int) *[]Value {
	bp := irRegPool.Get().(*[]Value)
	if b := *bp; cap(b) >= n {
		*bp = b[:n]
	} else {
		*bp = make([]Value, n)
	}
	return bp
}

func putIRRegs(bp *[]Value) {
	b := *bp
	for i := range b {
		b[i] = Value{}
	}
	irRegPool.Put(bp)
}

// newIRFrame builds a frame with a pooled register file; releaseIRFrame
// returns the file to the pool (values the frame produced — candidates,
// env bindings, return values — are Value structs copied out of the
// registers, so scrubbing the file cannot reach them).
func newIRFrame(n int, e *env) *irFrame {
	bp := getIRRegs(n)
	return &irFrame{regs: *bp, regBox: bp, env: e}
}

func releaseIRFrame(fr *irFrame) {
	putIRRegs(fr.regBox)
	fr.regs, fr.regBox = nil, nil
}

// val reads a register; NoReg (and the reserved register 0) is clean.
func (fr *irFrame) val(r ir.Reg) Value {
	if r < 0 {
		return clean()
	}
	return fr.regs[r]
}

// irProvider resolves declarations to lowered functions: the analyzed
// file's own index first, then the scan-scoped provider, then a local
// lowering memo so single-file runs work without any cache.
type irProvider struct {
	file  *ir.File
	prov  ir.Provider
	local map[*ast.FunctionDecl]*ir.Func
}

func (p *irProvider) funcFor(d *ast.FunctionDecl) *ir.Func {
	if p.file != nil {
		if fn, ok := p.file.ByDecl[d]; ok {
			return fn
		}
	}
	if p.prov != nil {
		if fn := p.prov.Func(d); fn != nil {
			return fn
		}
	}
	if fn, ok := p.local[d]; ok {
		return fn
	}
	if p.local == nil {
		p.local = make(map[*ast.FunctionDecl]*ir.Func)
	}
	fn := ir.LowerFunc(d)
	p.local[d] = fn
	return fn
}

// FileIR analyzes a file through its lowered form fir (which must be the
// lowering of f). prov optionally resolves cross-file declarations to
// already-lowered functions; nil falls back to lowering on demand.
func (a *Analyzer) FileIR(f *ast.File, fir *ir.File, prov ir.Provider) []*Candidate {
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
	p := &irProvider{file: fir, prov: prov}
	fr := newIRFrame(fir.Top.NumRegs, newEnv(nil))
	a.runRegion(fir.Top.Body, fr, p)
	releaseIRFrame(fr)

	// Uncalled-function pass, in the same source order as the walker's.
	for _, fn := range fir.Funcs {
		if a.exhausted {
			break
		}
		if fn.Decl == nil || fn.Decl.Body == nil || a.analyzing[fn.Decl] {
			continue
		}
		a.analyzeUncalledIR(fn, p)
	}
	return a.cands
}

func (a *Analyzer) analyzeUncalledIR(fn *ir.Func, p *irProvider) {
	prev := a.curFunc
	a.curFunc = fn.Name
	a.analyzing[fn.Decl] = true
	fr := newIRFrame(fn.NumRegs, newEnv(nil))
	for _, prm := range fn.Params {
		if prm.Default != nil {
			fr.env.set(prm.Name, a.runBlockValue(prm.Default, fr, p))
		} else {
			fr.env.set(prm.Name, clean())
		}
	}
	a.runRegion(fn.Body, fr, p)
	releaseIRFrame(fr)
	delete(a.analyzing, fn.Decl)
	a.curFunc = prev
}

// ---------------------------------------------------------------------------
// Region and block execution
// ---------------------------------------------------------------------------

func (a *Analyzer) runRegion(r *ir.Region, fr *irFrame, p *irProvider) {
	if r == nil || a.exhausted {
		return
	}
	switch r.Kind {
	case ir.RBasic:
		a.runBlock(r.Blk, fr, p)
	case ir.RSeq:
		for _, k := range r.Kids {
			if a.exhausted {
				return
			}
			a.runRegion(k, fr, p)
		}
	case ir.RIf:
		e := fr.env
		base := e.snapshot()
		a.runRegion(r.Then, fr, p)
		thenSnap := e.snapshot()
		e.vars = base
		if r.Else != nil {
			a.runRegion(r.Else, fr, p)
		}
		e.mergeFrom(thenSnap)
	case ir.RLoop2:
		a.runRegion(r.Body, fr, p)
		a.runRegion(r.Body, fr, p)
	case ir.RForLoop:
		a.runRegion(r.Body, fr, p)
		if r.Post != nil && !a.exhausted {
			a.runBlock(r.Post, fr, p)
		}
		a.runRegion(r.Body, fr, p)
	case ir.RSwitch:
		a.runSwitch(r, fr, p)
	}
}

// runSwitch runs each case against the entry state and joins the exits —
// the walker's protocol — plus the IR engine's path-sensitive kill: with an
// exhaustive arm set (a default is present), a binding that every arm
// overwrites and leaves untainted cannot carry its pre-switch taint past
// the switch, so the stale base value is replaced by the join of the arm
// values instead of being merged with them.
func (a *Analyzer) runSwitch(r *ir.Region, fr *irFrame, p *irProvider) {
	e := fr.env
	base := e.snapshot()
	savedWritten := e.written
	snaps := make([]map[string]Value, 0, len(r.Cases))
	writes := make([]map[string]bool, 0, len(r.Cases))
	for _, c := range r.Cases {
		e.vars = copyBindings(base)
		e.written = make(map[string]bool)
		if c.Cond != nil {
			a.runBlock(c.Cond, fr, p)
		}
		a.runRegion(c.Body, fr, p)
		snaps = append(snaps, e.snapshot())
		writes = append(writes, e.written)
	}
	e.vars = base
	e.written = savedWritten

	var killed map[string]bool
	if r.HasDefault && len(writes) > 0 {
		for k := range writes[0] {
			if !e.get(k).Tainted {
				continue
			}
			everywhere := true
			for _, w := range writes[1:] {
				if !w[k] {
					everywhere = false
					break
				}
			}
			if !everywhere {
				continue
			}
			cleanEverywhere := true
			for _, s := range snaps {
				if s[k].Tainted {
					cleanEverywhere = false
					break
				}
			}
			if !cleanEverywhere {
				continue
			}
			if killed == nil {
				killed = make(map[string]bool)
			}
			killed[k] = true
		}
	}
	for k := range killed {
		v := snaps[0][k]
		for _, s := range snaps[1:] {
			v = join(v, s[k])
		}
		e.vars[k] = v
	}
	for _, s := range snaps {
		e.mergeFromExcept(s, killed)
	}
}

func (a *Analyzer) runBlock(b *ir.Block, fr *irFrame, p *irProvider) {
	if b == nil {
		return
	}
	for i := range b.Instrs {
		// One step per IR instruction: the budget and the cooperative stop
		// now gate the flat tape rather than the recursive walk.
		if !a.step() {
			return
		}
		a.runInstr(&b.Instrs[i], fr, p)
	}
}

// runBlockValue runs a sub-evaluation block and reads its result register.
func (a *Analyzer) runBlockValue(b *ir.Block, fr *irFrame, p *irProvider) Value {
	if b == nil {
		return clean()
	}
	a.runBlock(b, fr, p)
	return fr.val(b.Result)
}

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

func (a *Analyzer) runInstr(ins *ir.Instr, fr *irFrame, p *irProvider) {
	e := fr.env
	switch ins.Op {
	case ir.OpConst:
		fr.regs[ins.Dst] = clean()
	case ir.OpCopy:
		fr.regs[ins.Dst] = fr.val(ins.A)
	case ir.OpLoadVar:
		if a.isEntryPointVar(ins.Name) {
			fr.regs[ins.Dst] = Value{
				Tainted: true,
				Sources: []Source{{Name: "$" + ins.Name, Pos: ins.Pos()}},
				Trace:   []Step{{Pos: ins.Pos(), Desc: "entry point $" + ins.Name, Node: ins.Node}},
			}
		} else {
			fr.regs[ins.Dst] = e.get(ins.Name)
		}
	case ir.OpLoadKey:
		fr.regs[ins.Dst] = e.get(ins.Name)
	case ir.OpIndex:
		fr.regs[ins.Dst] = a.runIndex(ins, fr, p)
	case ir.OpUnion:
		var v Value
		for _, r := range ins.Args {
			v = v.merge(fr.val(r))
		}
		fr.regs[ins.Dst] = v
	case ir.OpConcat:
		v := fr.val(ins.A).merge(fr.val(ins.B))
		if v.Tainted {
			v.Trace = append(v.Trace, Step{Pos: ins.Pos(), Desc: "concatenation", Node: ins.Node})
		}
		fr.regs[ins.Dst] = v
	case ir.OpInterp:
		var v Value
		for _, r := range ins.Args {
			v = v.merge(fr.val(r))
		}
		if v.Tainted {
			v.Trace = append(v.Trace, Step{Pos: ins.Pos(), Desc: "string interpolation", Node: ins.Node})
		}
		fr.regs[ins.Dst] = v
	case ir.OpAssign:
		rhs := fr.val(ins.A)
		var v Value
		switch ins.AKind {
		case ir.AssignAppend:
			if ins.LV != nil && ins.LV.Kind == ir.LVVar {
				v = e.get(ins.LV.Name).merge(rhs)
			} else {
				v = rhs
			}
			if v.Tainted {
				v.Trace = append(v.Trace, Step{Pos: ins.Pos(), Desc: "append assignment", Node: ins.Node})
			}
		case ir.AssignPlain:
			v = rhs
			if v.Tainted {
				v.Trace = append(v.Trace, Step{Pos: ins.Pos(), Desc: "assignment", Node: ins.Node})
			}
		default:
			v = clean()
		}
		a.assignLV(ins.LV, v, e)
		fr.regs[ins.Dst] = v
	case ir.OpAssignTo:
		a.assignLV(ins.LV, fr.val(ins.A), e)
	case ir.OpSetVar:
		if ins.A < 0 {
			e.set(ins.Name, clean())
		} else {
			e.set(ins.Name, fr.val(ins.A))
		}
	case ir.OpCall:
		fr.regs[ins.Dst] = a.runCall(ins, fr, p)
	case ir.OpMethodCall:
		fr.regs[ins.Dst] = a.runMethodCall(ins, fr, p)
	case ir.OpStaticCall:
		fr.regs[ins.Dst] = a.runStaticCall(ins, fr, p)
	case ir.OpClosure:
		a.runClosure(ins, fr, p)
	case ir.OpPseudoSink:
		a.checkPseudoSink(ins.Name, ins.Node, ins.Expr, fr.val(ins.A), ins.Pos())
	case ir.OpNamedSink:
		a.checkNamedSink(ins.Name, ins.Node, ins.Expr, fr.val(ins.A), -1, ins.Pos())
	case ir.OpReturn:
		fr.ret = fr.ret.merge(fr.val(ins.A))
	}
}

// runIndex mirrors the walker's two IndexExpr branches: the entry-point
// superglobal read evaluates only the index subexpression, everything else
// evaluates base then index and yields the base value.
func (a *Analyzer) runIndex(ins *ir.Instr, fr *irFrame, p *irProvider) Value {
	if ins.Name != "" && a.isEntryPointVar(ins.Name) {
		if ins.IBlk != nil {
			a.runBlock(ins.IBlk, fr, p)
		}
		if ins.Name == "_SERVER" && serverKeySafe(ins.Key) {
			return clean()
		}
		src := fmt.Sprintf("$%s[%s]", ins.Name, ins.Key)
		return Value{
			Tainted: true,
			Sources: []Source{{Name: src, Pos: ins.Pos()}},
			Trace:   []Step{{Pos: ins.Pos(), Desc: "entry point " + src, Node: ins.Node}},
		}
	}
	v := a.runBlockValue(ins.XBlk, fr, p)
	if ins.IBlk != nil {
		a.runBlock(ins.IBlk, fr, p)
	}
	return v
}

// assignLV writes a value through a static assignment target, mirroring the
// walker's assignTo.
func (a *Analyzer) assignLV(lv *ir.LValue, v Value, e *env) {
	if lv == nil {
		return
	}
	switch lv.Kind {
	case ir.LVVar:
		e.set(lv.Name, v)
	case ir.LVIndex:
		// Element assignment taints the whole array conservatively.
		if v.Tainted {
			e.mergeSet(lv.Name, v)
		}
	case ir.LVKey:
		if v.Tainted && !lv.Strong {
			e.mergeSet(lv.Name, v)
		} else {
			e.set(lv.Name, v)
		}
	case ir.LVList:
		for _, k := range lv.Kids {
			a.assignLV(k, v, e)
		}
	}
}

// ---------------------------------------------------------------------------
// Calls
// ---------------------------------------------------------------------------

func (a *Analyzer) runCall(ins *ir.Instr, fr *irFrame, p *irProvider) Value {
	name := ins.Name
	args := make([]Value, len(ins.Args))
	for i, r := range ins.Args {
		args[i] = fr.val(r)
	}
	e := fr.env

	if a.isSanitizer(name) {
		v := clean()
		v.Sanitizers = append(v.Sanitizers, name)
		for _, av := range args {
			v.Sanitizers = append(v.Sanitizers, av.Sanitizers...)
		}
		return v
	}
	if a.class.IsEntryPointFunc(name) {
		return Value{
			Tainted: true,
			Sources: []Source{{Name: name + "()", Pos: ins.Pos()}},
			Trace:   []Step{{Pos: ins.Pos(), Desc: "entry point " + name + "()", Node: ins.Node}},
		}
	}
	a.checkCallSinks(name, false, "", ins.Node, ins.ArgExprs(), args, ins.Pos())
	if propagatesTaint(name) {
		v := mergeAll(args)
		if v.Tainted {
			v.Trace = append(v.Trace, Step{Pos: ins.Pos(), Desc: name + "()", Node: ins.Node})
		}
		return v
	}
	switch name {
	case "preg_match", "preg_match_all":
		if ax := ins.ArgExprs(); len(ax) >= 3 && len(args) >= 2 {
			a.assignTo(ax[2], args[1], e)
		}
		return clean()
	case "parse_str":
		if ax := ins.ArgExprs(); len(ax) >= 2 && len(args) >= 1 {
			a.assignTo(ax[1], args[0], e)
		}
		return clean()
	case "extract":
		return clean()
	case "settype":
		if ax := ins.ArgExprs(); len(ax) >= 1 {
			a.assignTo(ax[0], clean(), e)
		}
		return clean()
	}
	if fn := a.resolveFunc(name); fn != nil && fn.Body != nil && !a.cfg.DisableInlining {
		return a.inlineCallIR(fn, ins.ArgExprs(), args, ins.Pos(), e, p)
	}
	return clean()
}

func (a *Analyzer) runMethodCall(ins *ir.Instr, fr *irFrame, p *irProvider) Value {
	recv := fr.val(ins.A)
	name := ins.Name // lower-cased at lowering time
	args := make([]Value, len(ins.Args))
	for i, r := range ins.Args {
		args[i] = fr.val(r)
	}
	if a.class.IsSanitizerMethod(name) {
		v := clean()
		v.Sanitizers = append(v.Sanitizers, name)
		return v
	}
	a.checkCallSinks(name, true, ins.Key, ins.Node, ins.ArgExprs(), args, ins.Pos())
	if m := a.resolveMethod(name); m != nil && m.Body != nil && !a.cfg.DisableInlining {
		return a.inlineCallIR(m, ins.ArgExprs(), args, ins.Pos(), fr.env, p)
	}
	return recv.merge(mergeAll(args))
}

func (a *Analyzer) runStaticCall(ins *ir.Instr, fr *irFrame, p *irProvider) Value {
	name := strings.ToLower(ins.Name)
	args := make([]Value, len(ins.Args))
	for i, r := range ins.Args {
		args[i] = fr.val(r)
	}
	if a.class.IsSanitizerMethod(name) {
		v := clean()
		v.Sanitizers = append(v.Sanitizers, name)
		return v
	}
	a.checkCallSinks(name, true, strings.ToLower(ins.Key), ins.Node, ins.ArgExprs(), args, ins.Pos())
	// The walker inlines resolved static methods regardless of the
	// DisableInlining ablation; preserve that quirk.
	if m := a.resolveStaticMethod(ins.Key, ins.Name); m != nil && m.Body != nil {
		return a.inlineCallIR(m, ins.ArgExprs(), args, ins.Pos(), fr.env, p)
	}
	return mergeAll(args)
}

// runClosure evaluates a closure body in a fresh environment seeded from
// its use() clause, mirroring the walker's in-place conservative analysis.
func (a *Analyzer) runClosure(ins *ir.Instr, fr *irFrame, p *irProvider) {
	cf := ins.Closure
	inner := newEnv(nil)
	for _, u := range cf.Uses {
		inner.set(u, fr.env.get(u))
	}
	for _, prm := range cf.Params {
		inner.set(prm.Name, clean())
	}
	cfr := newIRFrame(cf.NumRegs, inner)
	a.runRegion(cf.Body, cfr, p)
	releaseIRFrame(cfr)
}

// inlineCallIR applies a user function at a call edge. Memoized and shared
// summaries act as transfer functions — the callee's effect is applied
// without touching its body — and count as transfer hits; a miss runs the
// callee's lowered body once and installs the summary for the next edge.
func (a *Analyzer) inlineCallIR(fn *ast.FunctionDecl, argExprs []ast.Expr, args []Value, callPos token.Position, caller *env, p *irProvider) Value {
	if a.depth >= a.cfg.MaxCallDepth || a.analyzing[fn] || a.exhausted {
		return mergeAll(args)
	}

	key := memoKey(fn, args)
	if s, ok := a.summaries[key]; ok {
		if a.fill != nil && s.fillID != a.fill.id {
			a.fill.impure = true
		}
		a.transferHits++
		v := s.returnValue
		if v.Tainted {
			v.Trace = append(append([]Step{}, v.Trace...),
				Step{Pos: callPos, Desc: "return from " + fn.Name + "()"})
		}
		return v
	}

	filling := false
	if a.shareEligible(args) {
		sk := SummaryKey{Class: a.class.ID, Fn: fn, NArgs: len(args)}
		if se := a.sharedLookup(sk); se != nil {
			a.transferHits++
			ret := a.consumeShared(se, key, argExprs, caller)
			if ret.Tainted {
				ret.Trace = append(append([]Step{}, ret.Trace...),
					Step{Pos: callPos, Desc: "return from " + fn.Name + "()"})
			}
			return ret
		}
		a.sharedMisses++
		a.fillSeq++
		a.fill = &fillFrame{key: sk, id: a.fillSeq, stepsStart: a.steps}
		filling = true
	}

	cf := p.funcFor(fn)

	a.depth++
	a.analyzing[fn] = true
	prevFunc := a.curFunc
	a.curFunc = fn.Name

	inner := newEnv(nil)
	cfr := newIRFrame(cf.NumRegs, inner)
	for i, prm := range cf.Params {
		switch {
		case i < len(args):
			inner.set(prm.Name, args[i])
		case prm.Default != nil:
			inner.set(prm.Name, a.runBlockValue(prm.Default, cfr, p))
		default:
			inner.set(prm.Name, clean())
		}
	}
	a.runRegion(cf.Body, cfr, p)
	ret := cfr.ret
	releaseIRFrame(cfr)

	// Propagate by-ref parameter taint back to caller arguments.
	for i, prm := range cf.Params {
		if prm.ByRef && i < len(argExprs) {
			a.assignTo(argExprs[i], inner.get(prm.Name), caller)
		}
	}

	a.curFunc = prevFunc
	delete(a.analyzing, fn)
	a.depth--

	entry := &summary{returnValue: ret}
	if a.fill != nil {
		entry.fillID = a.fill.id
	}
	a.summaries[key] = entry
	if filling {
		a.finishFill(ret, fn, inner)
	}
	if ret.Tainted {
		ret.Trace = append(append([]Step{}, ret.Trace...),
			Step{Pos: callPos, Desc: "return from " + fn.Name + "()"})
	}
	return ret
}
