package core

import (
	"sync/atomic"

	"repro/internal/symptom"
	"repro/internal/taint"
)

// Scheduling: the execute stage groups the (file, class) tasks that actually
// need execution — not breaker-open, not killed by the sink pre-filter, not
// warm in the result store — by file, and evaluates every class lane of a
// group in a single fused IR pass. Results are split back to per-(file,
// class) granularity, so everything downstream (closure fingerprints,
// result-store entries, the retry ladder, per-class breakers, diagnostics)
// keeps its existing shape. A single task is a one-lane pass; a fault inside
// a multi-lane pass demotes only that file's classes to one-lane passes.

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

// runPass evaluates ts (tasks of one file) as the lanes of one fused pass
// and assembles one outcome per lane: findings with symptoms and the FP
// prediction, step and cache accounting, and pending shared summaries.
//
// A one-lane pass always yields its outcome; when the pass stopped early it
// carries exhausted or stopped, and its findings are the sound prefix the
// pass proved before stopping. A multi-lane pass that stops early returns
// nil: the other lanes were cut off too, so the caller demotes the group to
// one-lane passes.
func (e *Engine) runPass(ts []task, p *Project, stop *atomic.Bool, budget int, shared *taint.SharedSummaries, sx *symptom.Scan) []taskOutcome {
	cfgs := make([]taint.Config, len(ts))
	for k, t := range ts {
		if e.opts.TaskHook != nil {
			e.opts.TaskHook(t.file.Path, t.cls.ID)
		}
		// The tool's own fix for the class counts as a sanitizer so
		// corrected code is not re-flagged.
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
	// The lowered form is built once per file by the scan-scoped cache and
	// shared read-only across every pass that touches the file.
	cache := p.IRCache()
	if !fz.FileIR(file.AST, cache.File(file.AST), cache) && len(ts) > 1 {
		return nil
	}
	outs := make([]taskOutcome, len(ts))
	for k := range ts {
		out := &outs[k]
		for _, cand := range fz.Candidates(k) {
			f := &Finding{Candidate: cand}
			if w, ok := e.weapons[cand.Class]; ok {
				f.Weapon = string(w.Class.ID)
			}
			f.Symptoms = sx.Extract(cand, file.AST)
			f.PredictedFP, f.Votes = e.predict(f.Symptoms)
			out.findings = append(out.findings, f)
		}
		out.exhausted = fz.Exhausted(k)
		out.stopped = fz.Stopped(k)
		out.steps = fz.Steps(k)
		out.cacheHits = fz.SharedHits(k)
		out.cacheMisses = fz.SharedMisses(k)
		out.transfers = fz.TransferHits(k)
		out.pending = fz.PendingShared(k)
	}
	return outs
}
