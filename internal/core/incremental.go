package core

import (
	"context"
	"slices"

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
	// reused is aligned with tasks: a non-nil entry marks a task satisfied
	// from the store, carrying its rebound findings and the raw snapshot
	// entry (re-persisted verbatim on save).
	reused []*decodedTask
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
	// next is the generation a completed scan installs for the project: the
	// plan parts below, filled here, and the task results persistSnapshot
	// adds (nil without store).
	next *scanGen
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

// scanGen is one project's generation in the engine's reuse cache: what the
// last persisted scan of the project computed. The next scan of the same
// project name carries each part over only where it can prove the part's
// inputs unchanged and computes the rest exactly as a first scan would, so
// no output depends on what was carried. A generation is immutable once
// installed and replaced wholesale.
type scanGen struct {
	// files are the scanned project's files in order; every slice below is
	// aligned with them.
	files []*SourceFile
	// reach is fileClosures over files.
	reach [][]int
	// closures lists each file's closure members, cHashes their closureHash.
	closures [][]*SourceFile
	cHashes  []string
	// fps[i][c] is the fingerprint of task (files[i], engine class c), ""
	// for a class the pre-filter skipped.
	fps [][]string
	// tasks maps fingerprint to decoded result, mirroring what was persisted.
	tasks map[string]*decodedTask
}

// projectGen returns the project's current generation (nil when none);
// setProjectGen installs the next one.
func (e *Engine) projectGen(name string) *scanGen {
	e.reuseMu.Lock()
	defer e.reuseMu.Unlock()
	return e.reuseCache[name]
}

func (e *Engine) setProjectGen(name string, g *scanGen) {
	e.reuseMu.Lock()
	defer e.reuseMu.Unlock()
	if e.reuseCache == nil {
		e.reuseCache = make(map[string]*scanGen)
	}
	e.reuseCache[name] = g
}

// prevIndex maps each file of p to the index of the same path in g.files
// (-1 when new); same reports that both list the same paths in the same
// order. A nil g maps every file to -1.
func (g *scanGen) prevIndex(p *Project) (idx []int, same bool) {
	idx = make([]int, len(p.Files))
	if g == nil {
		for i := range idx {
			idx[i] = -1
		}
		return idx, false
	}
	same = len(g.files) == len(p.Files)
	for i, f := range p.Files {
		if !same || g.files[i].Path != f.Path {
			same = false
			break
		}
		idx[i] = i
	}
	if same {
		return idx, true
	}
	at := make(map[string]int, len(g.files))
	for i, f := range g.files {
		at[f.Path] = i
	}
	for i, f := range p.Files {
		if j, ok := at[f.Path]; ok {
			idx[i] = j
		} else {
			idx[i] = -1
		}
	}
	return idx, false
}

// carriedReach returns g's closures when p's call-name graph is provably
// g's — the same paths in the same order, and every file that is not g's
// very SourceFile calls and declares the same names as its predecessor —
// and computes fileClosures(p) otherwise.
func (g *scanGen) carriedReach(p *Project, samePaths bool) [][]int {
	if !samePaths {
		return fileClosures(p)
	}
	for i, f := range p.Files {
		old := g.files[i]
		if f != old && (!slices.Equal(f.calledNames(), old.calledNames()) ||
			!slices.Equal(declaredSet(f), declaredSet(old))) {
			return fileClosures(p)
		}
	}
	return g.reach
}

// declaredSet is declaredNames sorted and deduplicated.
func declaredSet(f *SourceFile) []string {
	names := declaredNames(f)
	slices.Sort(names)
	return slices.Compact(names)
}

// planGen computes the plan parts of a store-backed scan of p — each file's
// closure, closure hash and fingerprint row — carrying them from prev (the
// project's last generation, may be nil) where provably unchanged: a
// closure and its hash when every member is the very SourceFile prev's
// closure held (parse reuse keeps unchanged files pointer-identical), and a
// fingerprint row when the closure hash is unchanged (the digest and class
// list are fixed per engine, and equal closure contents give the pre-filter
// equal answers).
func (e *Engine) planGen(p *Project, prev *scanGen, prevIdx []int, reach [][]int, pf *prefilter, digest string) *scanGen {
	g := &scanGen{
		files:    p.Files,
		reach:    reach,
		closures: make([][]*SourceFile, len(p.Files)),
		cHashes:  make([]string, len(p.Files)),
		fps:      make([][]string, len(p.Files)),
	}
	for fi := range p.Files {
		o := prevIdx[fi]
		if o >= 0 && sameMembers(prev.closures[o], reach[fi], p.Files) {
			g.closures[fi], g.cHashes[fi], g.fps[fi] = prev.closures[o], prev.cHashes[o], prev.fps[o]
			continue
		}
		cl := make([]*SourceFile, len(reach[fi]))
		for k, j := range reach[fi] {
			cl[k] = p.Files[j]
		}
		h := closureHash(cl)
		g.closures[fi], g.cHashes[fi] = cl, h
		if o >= 0 && h == prev.cHashes[o] {
			g.fps[fi] = prev.fps[o]
			continue
		}
		row := make([]string, len(e.classes))
		for ci, cls := range e.classes {
			if pf == nil || pf.sinkReachable(fi, ci) {
				row[ci] = taskFingerprint(digest, cls.ID, h)
			}
		}
		g.fps[fi] = row
	}
	return g
}

// sameMembers reports whether closure holds exactly files[idx[k]] at each k.
func sameMembers(closure []*SourceFile, idx []int, files []*SourceFile) bool {
	if len(closure) != len(idx) {
		return false
	}
	for k, j := range idx {
		if closure[k] != files[j] {
			return false
		}
	}
	return true
}

// planScan builds the scan plan. The (file, class) grid is enumerated in
// file-major order — the order findings are reported in — and pre-filter
// skips are accounted exactly as before. With a store attached, each planned
// task's fingerprint is looked up in the previous snapshot; an entry that
// decodes cleanly satisfies the task without execution. Store-backed scans
// carry their closures, hashes and fingerprints across scans of the same
// project (scanGen).
func (e *Engine) planScan(ctx context.Context, p *Project, store *resultstore.Store, stats *statsCollector) *scanPlan {
	var (
		prev      *scanGen
		prevIdx   []int
		samePaths bool
	)
	if store != nil {
		prev = e.projectGen(p.Name)
		prevIdx, samePaths = prev.prevIndex(p)
	}
	// The pre-filter and the store fingerprints share one closure
	// computation.
	var reach [][]int
	if !e.opts.DisableSinkPrefilter || store != nil {
		reach = prev.carriedReach(p, samePaths)
	}
	var pf *prefilter
	if !e.opts.DisableSinkPrefilter {
		pf = newPrefilter(e.sinkTable(), p, reach)
	}

	plan := &scanPlan{store: store}
	var (
		snap      *resultstore.Snapshot
		ix        *nodeIndexer
		prevTasks map[string]*decodedTask
	)
	if store != nil {
		plan.digest = e.configDigest()
		snap, plan.loadInfo = store.LoadWithInfoContext(ctx, p.Name, plan.digest)
		plan.status = plan.loadInfo.Status
		plan.next = e.planGen(p, prev, prevIdx, reach, pf, plan.digest)
		ix = newNodeIndexer(p)
		if prev != nil {
			prevTasks = prev.tasks
		}
	}

	n := len(p.Files) * len(e.classes)
	if pf != nil {
		n = pf.reachableTasks(len(p.Files), len(e.classes))
	}
	plan.tasks = make([]task, 0, n)
	plan.reused = make([]*decodedTask, 0, n)
	plan.fingerprints = make([]string, 0, n)
	plan.closures = make([][]*SourceFile, 0, n)
	for fi, file := range p.Files {
		for ci, cls := range e.classes {
			if pf != nil && !pf.sinkReachable(fi, ci) {
				stats.recordSkip(cls.ID)
				continue
			}
			i := len(plan.tasks)
			plan.tasks = append(plan.tasks, task{file: file, cls: cls})
			plan.reused = append(plan.reused, nil)
			fp := ""
			var closure []*SourceFile
			if store != nil {
				fp = plan.next.fps[fi][ci]
				closure = plan.next.closures[fi]
			}
			plan.fingerprints = append(plan.fingerprints, fp)
			plan.closures = append(plan.closures, closure)
			if snap != nil {
				if entry := snap.Tasks[fp]; entry != nil {
					stats.recordFingerprintHit()
					// Fast path: the previous generation already decoded this
					// entry against the very same parsed files.
					if ce := prevTasks[fp]; ce != nil && sameFiles(ce.closure, closure) {
						if ce.entry != entry {
							// The snapshot was re-read since: persist what it holds.
							ce = &decodedTask{closure: closure, findings: ce.findings, entry: entry}
						}
						plan.reused[i] = ce
						stats.recordReused(cls.ID, entry.Steps, len(ce.findings))
						continue
					}
					if fs, ok := ix.decodeTask(entry); ok {
						plan.reused[i] = &decodedTask{closure: closure, findings: fs, entry: entry}
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
	snap.Tasks = make(map[string]*resultstore.TaskEntry, len(plan.tasks))
	next := make(map[string]*decodedTask, len(plan.tasks))
	for i := range plan.tasks {
		fp := plan.fingerprints[i]
		switch {
		case plan.reused[i] != nil:
			snap.Tasks[fp] = plan.reused[i].entry
			next[fp] = plan.reused[i]
		case exec.entries[i] != nil:
			snap.Tasks[fp] = exec.entries[i]
			next[fp] = &decodedTask{closure: plan.closures[i], findings: exec.results[i], entry: exec.entries[i]}
		}
	}
	// The next generation's results mirror exactly what was persisted, so
	// stale fingerprints drop out with the snapshot's.
	plan.next.tasks = next
	e.setProjectGen(p.Name, plan.next)
	_ = plan.store.SaveContext(ctx, snap)
}
