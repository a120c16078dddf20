package core

import (
	"context"

	"repro/internal/resultstore"
)

// The incremental pipeline splits a scan into three stages:
//
//	plan    — enumerate the (file, class) task grid, drop pre-filter skips,
//	          and, when a result store is attached, key every task by its
//	          closure fingerprint and satisfy fingerprint hits from the
//	          previous snapshot;
//	execute — run only the tasks the plan could not satisfy, through the
//	          unchanged fault-isolation machinery (watchdog, retry ladder,
//	          circuit breakers);
//	merge   — splice reused and fresh results in grid order, recompute the
//	          cross-file stored-XSS links over the combined findings, attach
//	          diagnostics and statistics, and persist the new snapshot.
//
// Reuse is sound by construction: a fingerprint covers the content hash of
// every file in the task file's reachable closure plus the engine's config
// digest, so any input that could change the task's findings changes the key.
// Reused tasks never consult the circuit breakers (nothing executes) and a
// breaker-skipped, faulted or retried task is never persisted, so it always
// re-executes on the next scan.

// scanPlan is the plan stage's output: the task grid with, per task, either
// a decoded stored result or a place in the execution queue.
type scanPlan struct {
	tasks []task
	// fingerprints are the store keys, aligned with tasks ("" without store).
	fingerprints []string
	// reused/reusedOK/entries are aligned with tasks: reusedOK[i] marks a
	// task satisfied from the store, reused[i] its rebound findings and
	// entries[i] the raw snapshot entry (re-persisted verbatim on save).
	reused   [][]*Finding
	reusedOK []bool
	entries  []*resultstore.TaskEntry
	// closures holds, per task, the parsed instances of every file in the
	// task file's reachable closure (nil without store) — the validity key
	// of the engine's decoded-findings cache.
	closures [][]*SourceFile
	// execIdx lists the task indices the execute stage must run.
	execIdx []int

	store  *resultstore.Store
	digest string
	// status reports how the previous snapshot was (not) loaded; loadInfo
	// carries the load's full self-healing account (quarantine, salvage).
	status   resultstore.LoadStatus
	loadInfo resultstore.LoadInfo
}

// decodedTask is one reusable task result in memory: the findings as decoded
// (or freshly produced), the snapshot entry they round-trip to, and the
// closure file instances they reference. It is only valid while every file
// in the closure is the same parsed instance — guaranteed across scans for
// unchanged files by parse reuse (LoadOptions.Prev / LoadMapIncremental),
// and checked by pointer before use, so a project re-parsed from scratch
// simply falls back to decoding the snapshot entry.
type decodedTask struct {
	closure  []*SourceFile
	findings []*Finding
	entry    *resultstore.TaskEntry
}

func sameFiles(a, b []*SourceFile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// projectCache returns the current decoded-findings generation for a project
// (nil when none); setProjectCache installs the next generation.
func (e *Engine) projectCache(name string) map[string]*decodedTask {
	e.reuseMu.Lock()
	defer e.reuseMu.Unlock()
	return e.reuseCache[name]
}

func (e *Engine) setProjectCache(name string, m map[string]*decodedTask) {
	e.reuseMu.Lock()
	defer e.reuseMu.Unlock()
	if e.reuseCache == nil {
		e.reuseCache = make(map[string]map[string]*decodedTask)
	}
	e.reuseCache[name] = m
}

// planScan builds the scan plan. The (file, class) grid is enumerated in
// file-major order — the order findings are reported in — and pre-filter
// skips are accounted exactly as before. With a store attached, each planned
// task's fingerprint is looked up in the previous snapshot; an entry that
// decodes cleanly satisfies the task without execution.
func (e *Engine) planScan(ctx context.Context, p *Project, store *resultstore.Store, stats *statsCollector) *scanPlan {
	// The pre-filter and the store fingerprints share one closure
	// computation.
	var reach [][]int
	if !e.opts.DisableSinkPrefilter || store != nil {
		reach = fileClosures(p)
	}
	var pf *prefilter
	if !e.opts.DisableSinkPrefilter {
		pf = newPrefilter(e.sinkTable(), p, reach)
	}

	plan := &scanPlan{store: store}
	var (
		snap      *resultstore.Snapshot
		cHashes   []string
		ix        *nodeIndexer
		closures  [][]*SourceFile
		prevCache map[string]*decodedTask
	)
	if store != nil {
		plan.digest = e.configDigest()
		snap, plan.loadInfo = store.LoadWithInfoContext(ctx, p.Name, plan.digest)
		plan.status = plan.loadInfo.Status
		cHashes = closureHashes(p, reach)
		ix = newNodeIndexer(p)
		closures = make([][]*SourceFile, len(p.Files))
		prevCache = e.projectCache(p.Name)
	}

	for fi, file := range p.Files {
		for ci, cls := range e.classes {
			if pf != nil && !pf.sinkReachable(fi, ci) {
				stats.recordSkip(cls.ID)
				continue
			}
			i := len(plan.tasks)
			plan.tasks = append(plan.tasks, task{file: file, cls: cls})
			plan.reused = append(plan.reused, nil)
			plan.reusedOK = append(plan.reusedOK, false)
			plan.entries = append(plan.entries, nil)
			fp := ""
			var closure []*SourceFile
			if store != nil {
				fp = taskFingerprint(plan.digest, cls.ID, cHashes[fi])
				if closures[fi] == nil {
					cl := make([]*SourceFile, len(reach[fi]))
					for k, j := range reach[fi] {
						cl[k] = p.Files[j]
					}
					closures[fi] = cl
				}
				closure = closures[fi]
			}
			plan.fingerprints = append(plan.fingerprints, fp)
			plan.closures = append(plan.closures, closure)
			if snap != nil {
				if entry := snap.Tasks[fp]; entry != nil {
					stats.recordFingerprintHit()
					// Fast path: the previous generation already decoded this
					// entry against the very same parsed files.
					if ce := prevCache[fp]; ce != nil && sameFiles(ce.closure, closure) {
						plan.reused[i] = ce.findings
						plan.reusedOK[i] = true
						plan.entries[i] = entry
						stats.recordReused(cls.ID, entry.Steps, len(ce.findings))
						continue
					}
					if fs, ok := ix.decodeTask(entry); ok {
						plan.reused[i] = fs
						plan.reusedOK[i] = true
						plan.entries[i] = entry
						stats.recordReused(cls.ID, entry.Steps, len(fs))
						continue
					}
				}
			}
			if store != nil {
				stats.recordFingerprintMiss()
			}
			plan.execIdx = append(plan.execIdx, i)
		}
	}
	return plan
}

// persistSnapshot writes the scan's new snapshot: reused entries re-persisted
// verbatim plus every freshly executed task that completed cleanly on its
// first attempt. Faulted, retried (even when the ladder recovered them),
// breaker-skipped and cancelled tasks are left out, so they re-execute next
// scan. The whole-snapshot write drops entries for fingerprints no longer in
// the plan (changed or removed files), pruning the store as the tree evolves.
// Persistence is best-effort: a failed save costs the next scan's warm start,
// never this scan's report.
func (e *Engine) persistSnapshot(ctx context.Context, p *Project, plan *scanPlan, exec *execState) {
	if plan.store == nil {
		return
	}
	snap := resultstore.NewSnapshot(p.Name, plan.digest)
	next := make(map[string]*decodedTask, len(plan.tasks))
	ix := newNodeIndexer(p)
	for i, t := range plan.tasks {
		fp := plan.fingerprints[i]
		switch {
		case plan.reusedOK[i]:
			snap.Tasks[fp] = plan.entries[i]
			next[fp] = &decodedTask{closure: plan.closures[i], findings: plan.reused[i], entry: plan.entries[i]}
		case exec.clean[i]:
			fs, ok := ix.encodeTask(exec.results[i])
			if !ok {
				continue
			}
			entry := &resultstore.TaskEntry{
				File: t.file.Path, Class: string(t.cls.ID),
				Steps: exec.steps[i], Findings: fs,
			}
			snap.Tasks[fp] = entry
			next[fp] = &decodedTask{closure: plan.closures[i], findings: exec.results[i], entry: entry}
		}
	}
	// The in-memory generation mirrors exactly what was persisted, replaced
	// wholesale so stale fingerprints drop out with the snapshot's.
	e.setProjectCache(p.Name, next)
	_ = plan.store.SaveContext(ctx, snap)
}
