package core

import (
	"sync/atomic"

	"repro/internal/symptom"
	"repro/internal/taint"
)

// Fused scheduling: the execute stage groups the (file, class) tasks that
// actually need execution — not breaker-open, not killed by the sink
// pre-filter, not warm in the result store — into one fused task per file,
// and evaluates every class lane in a single IR traversal. Results are split
// back to per-(file, class) granularity, so everything downstream (closure
// fingerprints, result-store entries, the retry ladder, per-class breakers,
// diagnostics) keeps its existing shape; a fault inside a fused pass demotes
// only that file's classes to the unfused per-class path.

// fuseGroups slices the plan's execution queue into runs of consecutive
// entries sharing a file. planScan emits the queue file-major, so a linear
// scan recovers exactly one group per file needing execution; a file's
// classes killed by the pre-filter or satisfied from the result store are
// simply absent from its group.
func fuseGroups(plan *scanPlan) [][]int {
	var groups [][]int
	start := 0
	for n := 1; n <= len(plan.execIdx); n++ {
		if n == len(plan.execIdx) ||
			plan.tasks[plan.execIdx[n]].file != plan.tasks[plan.execIdx[start]].file {
			groups = append(groups, plan.execIdx[start:n:n])
			start = n
		}
	}
	return groups
}

// runFusedTasks performs one fused multi-class analysis: every class lane in
// ts (all tasks of one file) evaluated by a single IR traversal. Per lane it
// mirrors runTask exactly — same task hook, same analyzer config, same
// outcome assembly — so a clean fused pass is indistinguishable from len(ts)
// clean unfused first attempts. ok=false means the pass aborted (a lane's
// step budget, or the cooperative stop): lane state is then meaningless and
// the caller demotes the whole group to unfused execution.
func (e *Engine) runFusedTasks(ts []task, p *Project, stop *atomic.Bool, budget int, shared *taint.SharedSummaries, sx *symptom.Scan) ([]taskOutcome, bool) {
	cfgs := make([]taint.Config, len(ts))
	for k, t := range ts {
		if e.opts.TaskHook != nil {
			e.opts.TaskHook(t.file.Path, t.cls.ID)
		}
		sans := append([]string(nil), e.opts.ExtraSanitizers...)
		if fixID := e.fixIDFor(t.cls); fixID != "" {
			sans = append(sans, fixID)
		}
		sans = append(sans, e.opts.ClassSanitizers[t.cls.ID]...)
		cfgs[k] = taint.Config{
			Class:            t.cls,
			Resolver:         p,
			ExtraSanitizers:  sans,
			ExtraEntryPoints: e.opts.ExtraEntryPoints,
			ExtraSinks:       e.opts.ClassSinks[t.cls.ID],
			MaxSteps:         budget,
			Stop:             stop,
			Shared:           shared,
		}
	}
	fz := taint.NewFused(cfgs)
	file := ts[0].file
	cache := p.IRCache()
	if !fz.FileIR(file.AST, cache.File(file.AST), cache) {
		return nil, false
	}
	outs := make([]taskOutcome, len(ts))
	for k, t := range ts {
		out := &outs[k]
		for _, cand := range fz.Candidates(k) {
			f := &Finding{Candidate: cand}
			if w, ok := e.weapons[cand.Class]; ok {
				f.Weapon = string(w.Class.ID)
			}
			f.Symptoms = sx.Extract(cand, t.file.AST)
			f.PredictedFP, f.Votes = e.predict(f.Symptoms)
			out.findings = append(out.findings, f)
		}
		out.steps = fz.Steps(k)
		out.cacheHits = fz.SharedHits(k)
		out.cacheMisses = fz.SharedMisses(k)
		out.transfers = fz.TransferHits(k)
		out.pending = fz.PendingShared(k)
	}
	return outs, true
}
