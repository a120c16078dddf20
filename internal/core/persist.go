package core

import (
	"repro/internal/php/ast"
	"repro/internal/php/token"
	"repro/internal/resultstore"
	"repro/internal/taint"
	"repro/internal/vuln"
)

// checkpointer persists partial snapshots while a scan is still executing,
// so a process killed mid-scan leaves its completed tasks warm in the store
// for the resumed attempt. Every partial snapshot is a valid snapshot — the
// plan's reused entries plus the entries of the cleanly completed tasks so
// far (execState.entries) — and correctness never depends on one existing:
// fingerprints gate all reuse, so a missing, stale or torn checkpoint only
// costs re-execution. The final persistSnapshot on scan completion
// supersedes the last checkpoint.
//
// A nil *checkpointer is valid and inert, so call sites need no guards.
type checkpointer struct {
	p     *Project
	plan  *scanPlan
	so    ScanOpts
	stats *statsCollector
	done  int
}

// newCheckpointer returns nil — no checkpointing — unless a store is
// attached and a cadence is configured.
func newCheckpointer(p *Project, plan *scanPlan, so ScanOpts, stats *statsCollector) *checkpointer {
	if so.Store == nil || so.CheckpointEvery <= 0 || plan.store == nil {
		return nil
	}
	return &checkpointer{p: p, plan: plan, so: so, stats: stats}
}

// taskDone counts one dispositioned execution task; every
// CheckpointEvery-th disposition persists a partial snapshot of the reused
// entries plus entries (aligned with plan.tasks). The caller holds the lock
// that guards entries, which also serializes taskDone.
func (c *checkpointer) taskDone(entries []*resultstore.TaskEntry) {
	if c == nil {
		return
	}
	c.done++
	if c.done%c.so.CheckpointEvery != 0 || c.done >= len(c.plan.execIdx) {
		return
	}
	snap := resultstore.NewSnapshot(c.p.Name, c.plan.digest)
	for i, r := range c.plan.reused {
		switch {
		case r != nil:
			snap.Tasks[c.plan.fingerprints[i]] = r.entry
		case entries[i] != nil:
			snap.Tasks[c.plan.fingerprints[i]] = entries[i]
		}
	}
	// Best-effort, like every store save.
	if err := c.plan.store.Save(snap); err != nil {
		return
	}
	c.stats.recordCheckpoint()
	if c.so.OnCheckpoint != nil {
		c.so.OnCheckpoint(c.done, len(c.plan.execIdx))
	}
}

// Findings carry live AST pointers (the sink call, the tainted argument, the
// trace nodes) that post-merge consumers — the stored-XSS linker, symptom
// justification, the code corrector — dereference. Persisting them therefore
// needs a serializable node address. The address used here is the node's
// index in ast.Inspect's deterministic preorder walk of its file: a task is
// only reused when every file in its closure is byte-identical, re-parsing
// identical bytes yields an identical AST, so the same index resolves to the
// same node. Both directions are conservative about failure: a finding whose
// node cannot be indexed is simply not persisted, and a stored finding whose
// reference cannot be resolved fails the whole task entry, which then
// re-executes.

// nodeIndexer lazily builds per-file node→index and index→node tables over a
// project's ASTs. It is not safe for concurrent use: the plan stage decodes
// on the coordinating goroutine, and the execute stage encodes under its
// entries lock.
type nodeIndexer struct {
	p       *Project
	byNode  map[string]map[ast.Node]int
	byIndex map[string][]ast.Node
}

func newNodeIndexer(p *Project) *nodeIndexer {
	return &nodeIndexer{
		p:       p,
		byNode:  make(map[string]map[ast.Node]int),
		byIndex: make(map[string][]ast.Node),
	}
}

func (ix *nodeIndexer) build(path string) bool {
	if _, ok := ix.byIndex[path]; ok {
		return true
	}
	sf := ix.p.File(path)
	if sf == nil {
		return false
	}
	nodes := []ast.Node{}
	index := make(map[ast.Node]int)
	ast.Inspect(sf.AST, func(n ast.Node) bool {
		index[n] = len(nodes)
		nodes = append(nodes, n)
		return true
	})
	ix.byNode[path] = index
	ix.byIndex[path] = nodes
	return true
}

// ref addresses n within file, or — for trace steps in inlined callees —
// within another member of closure, the task's reachable closure: only
// those files can declare a callee the task inlined. A node found nowhere
// is not addressable. A nil node encodes as index -1.
func (ix *nodeIndexer) ref(file string, n ast.Node, closure []*SourceFile) (resultstore.NodeRef, bool) {
	if n == nil {
		return resultstore.NodeRef{Index: -1}, true
	}
	if ix.build(file) {
		if i, ok := ix.byNode[file][n]; ok {
			return resultstore.NodeRef{File: file, Index: i}, true
		}
	}
	for _, sf := range closure {
		if sf.Path == file || !ix.build(sf.Path) {
			continue
		}
		if i, ok := ix.byNode[sf.Path][n]; ok {
			return resultstore.NodeRef{File: sf.Path, Index: i}, true
		}
	}
	return resultstore.NodeRef{}, false
}

// resolve returns the node a ref addresses, or (nil, true) for the nil ref.
func (ix *nodeIndexer) resolve(r resultstore.NodeRef) (ast.Node, bool) {
	if r.Index < 0 {
		return nil, true
	}
	if !ix.build(r.File) {
		return nil, false
	}
	nodes := ix.byIndex[r.File]
	if r.Index >= len(nodes) {
		return nil, false
	}
	return nodes[r.Index], true
}

func encodePos(p token.Position) resultstore.Position {
	return resultstore.Position{File: p.File, Offset: p.Offset, Line: p.Line, Column: p.Column}
}

func decodePos(p resultstore.Position) token.Position {
	return token.Position{File: p.File, Offset: p.Offset, Line: p.Line, Column: p.Column}
}

// encodeTask serializes one task's findings; closure is the task's
// reachable closure. ok is false when any node could not be addressed; the
// caller must then skip persisting the task.
func (ix *nodeIndexer) encodeTask(findings []*Finding, closure []*SourceFile) ([]resultstore.Finding, bool) {
	if len(findings) == 0 {
		return nil, true
	}
	out := make([]resultstore.Finding, 0, len(findings))
	for _, f := range findings {
		c := f.Candidate
		sinkRef, ok := ix.ref(c.File, c.SinkCall, closure)
		if !ok {
			return nil, false
		}
		exprRef, ok := ix.ref(c.File, c.TaintedExpr, closure)
		if !ok {
			return nil, false
		}
		val := resultstore.Value{
			Tainted:    c.Value.Tainted,
			Sanitizers: c.Value.Sanitizers,
		}
		for _, s := range c.Value.Sources {
			val.Sources = append(val.Sources, resultstore.Source{Name: s.Name, Pos: encodePos(s.Pos)})
		}
		for _, st := range c.Value.Trace {
			nodeRef, ok := ix.ref(st.Pos.File, st.Node, closure)
			if !ok {
				return nil, false
			}
			val.Trace = append(val.Trace, resultstore.Step{
				Pos: encodePos(st.Pos), Desc: st.Desc, Node: nodeRef,
			})
		}
		out = append(out, resultstore.Finding{
			Class:         string(c.Class),
			SinkName:      c.SinkName,
			SinkPos:       encodePos(c.SinkPos),
			SinkCall:      sinkRef,
			ArgIndex:      c.ArgIndex,
			TaintedExpr:   exprRef,
			Value:         val,
			EnclosingFunc: c.EnclosingFunc,
			File:          c.File,
			Symptoms:      f.Symptoms,
			PredictedFP:   f.PredictedFP,
			Votes:         f.Votes,
			Weapon:        f.Weapon,
		})
	}
	return out, true
}

// decodeTask rebinds one stored task entry against the current project's
// ASTs. ok is false when any reference fails to resolve (the entry is then
// treated as a fingerprint miss and the task re-executes).
func (ix *nodeIndexer) decodeTask(entry *resultstore.TaskEntry) ([]*Finding, bool) {
	var out []*Finding
	for i := range entry.Findings {
		sf := &entry.Findings[i]
		sinkNode, ok := ix.resolve(sf.SinkCall)
		if !ok {
			return nil, false
		}
		exprNode, ok := ix.resolve(sf.TaintedExpr)
		if !ok {
			return nil, false
		}
		expr, _ := exprNode.(ast.Expr)
		if exprNode != nil && expr == nil {
			return nil, false
		}
		c := &taint.Candidate{
			Class:         vuln.ClassID(sf.Class),
			SinkName:      sf.SinkName,
			SinkPos:       decodePos(sf.SinkPos),
			SinkCall:      sinkNode,
			ArgIndex:      sf.ArgIndex,
			TaintedExpr:   expr,
			EnclosingFunc: sf.EnclosingFunc,
			File:          sf.File,
		}
		c.Value = taint.Value{
			Tainted:    sf.Value.Tainted,
			Sanitizers: sf.Value.Sanitizers,
		}
		for _, s := range sf.Value.Sources {
			c.Value.Sources = append(c.Value.Sources, taint.Source{Name: s.Name, Pos: decodePos(s.Pos)})
		}
		for _, st := range sf.Value.Trace {
			n, ok := ix.resolve(st.Node)
			if !ok {
				return nil, false
			}
			c.Value.Trace = append(c.Value.Trace, taint.Step{
				Pos: decodePos(st.Pos), Desc: st.Desc, Node: n,
			})
		}
		out = append(out, &Finding{
			Candidate:   c,
			Symptoms:    sf.Symptoms,
			PredictedFP: sf.PredictedFP,
			Votes:       sf.Votes,
			Weapon:      sf.Weapon,
		})
	}
	return out, true
}
