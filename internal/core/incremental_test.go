package core

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/php/ast"
	"repro/internal/resultstore"
	"repro/internal/vuln"
)

// The incremental corpus exercises a cross-file taint chain (sqli.php pulls
// its tainted value from a function declared in lib.php), so lib.php is in
// sqli.php's reachable closure and editing it must invalidate sqli.php's
// tasks, while xss.php and clean.php stay untouched.
func incrementalFiles() map[string]string {
	return map[string]string{
		"lib.php":   `<?php function getid() { return $_GET['id']; }`,
		"sqli.php":  `<?php mysql_query("SELECT * FROM t WHERE id=" . getid());`,
		"xss.php":   `<?php echo $_GET['x'];`,
		"clean.php": `<?php $a = 1; echo "static page";`,
	}
}

func incrementalOpts() Options {
	return Options{
		Mode: ModeWAPe, Seed: 1, Parallelism: 1,
		Classes: []vuln.ClassID{vuln.SQLI, vuln.XSSR},
	}
}

func openTestStore(t *testing.T, dir string) *resultstore.Store {
	t.Helper()
	store, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// findingKey summarizes everything observable about a finding, AST pointers
// excluded, so reused and freshly executed findings can be compared deeply.
func findingKey(f *Finding) string {
	c := f.Candidate
	var srcs []string
	for _, s := range c.Value.Sources {
		srcs = append(srcs, fmt.Sprintf("%s@%s:%d", s.Name, s.Pos.File, s.Pos.Line))
	}
	var trace []string
	for _, st := range c.Value.Trace {
		trace = append(trace, fmt.Sprintf("%s@%s:%d(node=%v)", st.Desc, st.Pos.File, st.Pos.Line, st.Node != nil))
	}
	var syms []string
	for s, v := range f.Symptoms {
		if v {
			syms = append(syms, s)
		}
	}
	sort.Strings(syms)
	return fmt.Sprintf("%s|%s|fp=%v|votes=%v|w=%s|tainted=%v|san=%v|src=%v|trace=%v|sym=%v|fn=%s",
		c.Key(), c.File, f.PredictedFP, f.Votes, f.Weapon,
		c.Value.Tainted, c.Value.Sanitizers, srcs, trace, syms, c.EnclosingFunc)
}

func findingKeys(rep *Report) []string {
	out := make([]string, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		out = append(out, findingKey(f))
	}
	return out
}

func scanWithStore(t *testing.T, opts Options, files map[string]string, store *resultstore.Store) *Report {
	t.Helper()
	e := newTestEngine(t, opts)
	rep, err := e.AnalyzeContextStore(context.Background(), LoadMap("app", files), store)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestIncrementalWarmScanReusesEverything(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	cold := scanWithStore(t, incrementalOpts(), files, store)
	if cold.Stats.TasksReused != 0 || cold.Stats.FingerprintHits != 0 {
		t.Fatalf("cold scan reported reuse: %+v", cold.Stats)
	}
	if cold.Stats.FingerprintMisses != cold.Stats.Tasks {
		t.Errorf("cold scan: %d fingerprint misses, want %d (every executed task)",
			cold.Stats.FingerprintMisses, cold.Stats.Tasks)
	}
	if len(cold.Findings) == 0 {
		t.Fatal("corpus produced no findings; reuse check is vacuous")
	}

	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.Tasks != 0 {
		t.Errorf("warm scan executed %d tasks, want 0", warm.Stats.Tasks)
	}
	if warm.Stats.TasksReused != cold.Stats.Tasks {
		t.Errorf("warm scan reused %d tasks, want %d", warm.Stats.TasksReused, cold.Stats.Tasks)
	}
	if warm.Stats.FingerprintHits != warm.Stats.TasksReused {
		t.Errorf("fingerprint hits %d != tasks reused %d", warm.Stats.FingerprintHits, warm.Stats.TasksReused)
	}
	if warm.Stats.StepsSaved != cold.Stats.TotalSteps {
		t.Errorf("steps saved %d, want the cold scan's %d", warm.Stats.StepsSaved, cold.Stats.TotalSteps)
	}
	if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
		t.Errorf("warm findings differ from cold:\nwarm: %v\ncold: %v", got, want)
	}
	if len(warm.StoredLinks) != len(cold.StoredLinks) {
		t.Errorf("stored links differ: warm %d, cold %d", len(warm.StoredLinks), len(cold.StoredLinks))
	}
}

func TestIncrementalSingleFileEdit(t *testing.T) {
	for _, disablePF := range []bool{false, true} {
		t.Run(fmt.Sprintf("prefilterDisabled=%v", disablePF), func(t *testing.T) {
			opts := incrementalOpts()
			opts.DisableSinkPrefilter = disablePF
			store := openTestStore(t, t.TempDir())
			files := incrementalFiles()

			cold := scanWithStore(t, opts, files, store)

			// Editing lib.php changes the closure of both lib.php and
			// sqli.php; xss.php and clean.php must be served from the store.
			edited := incrementalFiles()
			edited["lib.php"] = `<?php function getid() { return $_POST['id']; }`
			warm := scanWithStore(t, opts, edited, store)
			if warm.Stats.TasksReused == 0 {
				t.Error("edit of one file invalidated every task; expected reuse of untouched files")
			}
			if warm.Stats.Tasks == 0 {
				t.Error("edit of lib.php re-executed nothing")
			}
			if warm.Stats.Tasks >= cold.Stats.Tasks {
				t.Errorf("warm scan executed %d of %d tasks; expected a strict subset", warm.Stats.Tasks, cold.Stats.Tasks)
			}

			// The spliced report must match a from-scratch scan bit for bit.
			fresh := scanWithStore(t, opts, edited, nil)
			if got, want := findingKeys(warm), findingKeys(fresh); !equalStrings(got, want) {
				t.Errorf("incremental findings differ from full rescan:\nincremental: %v\nfull: %v", got, want)
			}
			if !strings.Contains(strings.Join(findingKeys(warm), "\n"), "$_POST") {
				t.Error("edited source never surfaced in the warm findings; edit was not picked up")
			}
		})
	}
}

func TestIncrementalFaultedTaskNeverPersisted(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()
	opts := incrementalOpts()

	executions := newExecLog()
	opts.TaskHook = func(file string, class vuln.ClassID) {
		executions.record(file, class)
		if file == "sqli.php" && class == vuln.SQLI {
			panic("injected fault")
		}
	}
	rep := scanWithStore(t, opts, files, store)
	if n := len(diagsOfKind(rep, DiagPanic)); n != 1 {
		t.Fatalf("got %d panic diagnostics, want 1", n)
	}

	// Second scan, same fault: the faulted task must re-execute (it was not
	// persisted), every cleanly completed task must be reused (not run).
	executions.reset()
	rep2 := scanWithStore(t, opts, files, store)
	if got := executions.calls(); !equalStrings(got, []string{"sqli.php|sqli"}) {
		t.Errorf("second scan executed %v, want only the faulted task", got)
	}
	if rep2.Stats.TasksReused == 0 {
		t.Error("second scan reused nothing")
	}
}

func TestIncrementalRetriedTaskNeverPersisted(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	// The hook faults the first attempt of xss.php's XSS task only; the
	// retry ladder recovers it. A recovered task's findings are in the
	// report but must not be persisted.
	var mu sync.Mutex
	faulted := false
	opts := incrementalOpts()
	opts.RetryMax = 2
	opts.RetryBackoff = -1
	opts.TaskHook = func(file string, class vuln.ClassID) {
		mu.Lock()
		defer mu.Unlock()
		if file == "xss.php" && class == vuln.XSSR && !faulted {
			faulted = true
			panic("transient fault")
		}
	}
	rep := scanWithStore(t, opts, files, store)
	if n := len(diagsOfKind(rep, DiagRetried)); n != 1 {
		t.Fatalf("got %d retried diagnostics, want 1", n)
	}
	if !hasFinding(rep, "xss.php", vuln.XSSR) {
		t.Fatal("recovered task's findings missing from report")
	}

	executions := newExecLog()
	opts2 := incrementalOpts()
	opts2.TaskHook = func(file string, class vuln.ClassID) { executions.record(file, class) }
	scanWithStore(t, opts2, files, store)
	if got := executions.calls(); !equalStrings(got, []string{"xss.php|xss"}) {
		t.Errorf("second scan executed %v, want only the retried task", got)
	}
}

func TestIncrementalBreakerSkippedTaskNeverPersisted(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	// Breaker threshold 1: the injected terminal fault trips SQLI's breaker,
	// so a second scan on the same engine skips the task breaker-open. The
	// skipped task must not be persisted as a zero-finding result.
	opts := incrementalOpts()
	opts.BreakerThreshold = 1
	opts.BreakerCooldown = time.Hour
	opts.TaskHook = func(file string, class vuln.ClassID) {
		if class == vuln.SQLI {
			panic("injected fault")
		}
	}
	e := newTestEngine(t, opts)
	ctx := context.Background()
	if _, err := e.AnalyzeContextStore(ctx, LoadMap("app", files), store); err != nil {
		t.Fatal(err)
	}
	rep2, err := e.AnalyzeContextStore(ctx, LoadMap("app", files), store)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(diagsOfKind(rep2, DiagBreakerOpen)); n == 0 {
		t.Fatal("breaker never opened; persistence check is vacuous")
	}

	// A healthy engine against the same store must execute the SQLI task
	// (nothing reusable was ever stored for it) and find the vulnerability.
	rep3 := scanWithStore(t, incrementalOpts(), files, store)
	if !hasFinding(rep3, "sqli.php", vuln.SQLI) {
		t.Error("SQLI finding missing after breaker-skip scans: a skipped task was wrongly reused")
	}
	if rep3.Stats.Tasks == 0 {
		t.Error("third scan executed nothing; breaker-skipped task was persisted")
	}
}

func TestIncrementalStoreInvalidation(t *testing.T) {
	files := incrementalFiles()

	t.Run("corrupt", func(t *testing.T) {
		dir := t.TempDir()
		store := openTestStore(t, dir)
		cold := scanWithStore(t, incrementalOpts(), files, store)
		for _, path := range storeFiles(t, dir) {
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		warm := scanWithStore(t, incrementalOpts(), files, store)
		if warm.Stats.TasksReused != 0 {
			t.Errorf("reused %d tasks from a corrupt store", warm.Stats.TasksReused)
		}
		if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
			t.Error("full re-execute after corruption produced different findings")
		}
	})

	t.Run("version-mismatch", func(t *testing.T) {
		dir := t.TempDir()
		store := openTestStore(t, dir)
		scanWithStore(t, incrementalOpts(), files, store)
		for _, path := range storeFiles(t, dir) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			mangled := strings.Replace(string(data),
				fmt.Sprintf(`"version":%d`, resultstore.FormatVersion), `"version":9999`, 1)
			if mangled == string(data) {
				t.Fatal("snapshot JSON did not contain the expected version field")
			}
			if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		warm := scanWithStore(t, incrementalOpts(), files, store)
		if warm.Stats.TasksReused != 0 {
			t.Errorf("reused %d tasks across a format-version bump", warm.Stats.TasksReused)
		}
	})

	t.Run("config-digest-mismatch", func(t *testing.T) {
		store := openTestStore(t, t.TempDir())
		scanWithStore(t, incrementalOpts(), files, store)
		changed := incrementalOpts()
		changed.ExtraSanitizers = []string{"my_escape"}
		warm := scanWithStore(t, changed, files, store)
		if warm.Stats.TasksReused != 0 {
			t.Errorf("reused %d tasks across a config change", warm.Stats.TasksReused)
		}
		// And the old config still matches its own snapshot... which the
		// changed-config scan just overwrote under its own digest.
		warm2 := scanWithStore(t, changed, files, store)
		if warm2.Stats.TasksReused == 0 {
			t.Error("rescan under the changed config reused nothing")
		}
	})
}

func TestIncrementalCancelledScanPersistsNothing(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := newTestEngine(t, incrementalOpts())
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AnalyzeContextStore(ctx, LoadMap("app", files), store); err == nil {
		t.Fatal("cancelled scan reported no error")
	}
	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.TasksReused != 0 {
		t.Errorf("reused %d tasks persisted by a cancelled scan", warm.Stats.TasksReused)
	}
}

// TestLoadMapIncrementalParseReuse pins the parse-reuse fast path: unchanged
// files adopt the previous project's parsed SourceFile, changed files are
// re-parsed.
func TestLoadMapIncrementalParseReuse(t *testing.T) {
	files := incrementalFiles()
	p1 := LoadMap("app", files)
	edited := incrementalFiles()
	edited["xss.php"] = `<?php echo $_POST['x'];`
	p2 := LoadMapIncremental("app", edited, p1)
	if p2.File("lib.php") != p1.File("lib.php") {
		t.Error("unchanged file was re-parsed instead of reused")
	}
	if p2.File("xss.php") == p1.File("xss.php") {
		t.Error("changed file reused the stale parse")
	}
	if !strings.Contains(p2.File("xss.php").Src, "$_POST") {
		t.Error("changed file carries stale source")
	}
}

func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no snapshot files in store directory")
	}
	return paths
}

func equalStrings(a, b []string) bool {
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

// execLog records which (file, class) tasks actually ran, via TaskHook.
type execLog struct {
	mu    sync.Mutex
	tasks []string
}

func newExecLog() *execLog { return &execLog{} }

func (l *execLog) record(file string, class vuln.ClassID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tasks = append(l.tasks, fmt.Sprintf("%s|%s", file, class))
}

func (l *execLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tasks = nil
}

func (l *execLog) calls() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]string(nil), l.tasks...)
	sort.Strings(out)
	return out
}

// carryFiles is the carried-plan edit sequence's starting tree: sqli.php
// reaches lib.php's getid across files, page.php calls newfn before any file
// declares it, and helpers.php is where newfn appears and disappears.
func carryFiles() map[string]string {
	return map[string]string{
		"lib.php":     `<?php function getid() { return $_GET['id']; }`,
		"sqli.php":    `<?php mysql_query("SELECT * FROM t WHERE id=" . getid());`,
		"xss.php":     `<?php echo $_GET['x'];`,
		"page.php":    `<?php echo newfn();`,
		"helpers.php": `<?php function fmt_row($r) { return "<td>" . $r . "</td>"; }`,
		"clean.php":   `<?php $a = 1; echo "static page";`,
	}
}

// TestCarriedPlanMatchesFreshPlan runs warm rescans of one edit sequence on
// one engine and store, carrying the plan generation across scans, next to
// a fresh engine per step over a store with the same history. After every
// step the carried closures, closure hashes, fingerprints and project
// indexes must equal the fresh ones, the saved snapshot blobs must be
// byte-identical, and the report must equal a cold scan's. Each edit breaks
// exactly one validity condition of the carry (closure member identity,
// declared names, called names, the path list), so dropping any of them
// fails here.
func TestCarriedPlanMatchesFreshPlan(t *testing.T) {
	opts := incrementalOpts()
	ctx := context.Background()
	dirA, dirB := t.TempDir(), t.TempDir()
	storeA, storeB := openTestStore(t, dirA), openTestStore(t, dirB)
	engA := newTestEngine(t, opts)

	files := carryFiles()
	steps := []struct {
		name   string
		edit   func(files map[string]string)
		reload bool // load from scratch instead of with parse reuse
		// carryReach marks steps whose closures must be carried over, so
		// the test cannot pass by recomputing everything.
		carryReach bool
	}{
		{name: "cold", edit: func(map[string]string) {}},
		{name: "unchanged", edit: func(map[string]string) {}, carryReach: true},
		{name: "body-only edit", edit: func(f map[string]string) {
			f["lib.php"] = `<?php function getid() { $v = $_GET['id']; return $v; }`
		}, carryReach: true},
		{name: "new function", edit: func(f map[string]string) {
			f["helpers.php"] += "\nfunction newfn() { return $_GET['n']; }"
		}},
		{name: "new cross-file call", edit: func(f map[string]string) {
			f["xss.php"] = `<?php echo $_GET['x']; echo fmt_row(getid());`
		}},
		{name: "function removed", edit: func(f map[string]string) {
			f["helpers.php"] = carryFiles()["helpers.php"]
		}},
		{name: "file added, removed and renamed", edit: func(f map[string]string) {
			f["new.php"] = `<?php system($_GET['c']);`
			delete(f, "clean.php")
			f["view/xss.php"] = f["xss.php"]
			delete(f, "xss.php")
		}},
		{name: "identical-bytes reload", edit: func(map[string]string) {}, reload: true, carryReach: true},
		{name: "body-only edit after reload", edit: func(f map[string]string) {
			f["page.php"] = `<?php echo newfn(); echo "footer";`
		}, carryReach: true},
	}

	var projA *Project
	for _, step := range steps {
		step.edit(files)
		prevGen := engA.projectGen("app")
		if projA == nil || step.reload {
			projA = LoadMap("app", files)
		} else {
			projA = LoadMapIncremental("app", files, projA)
		}
		repA, err := engA.AnalyzeContextStore(ctx, projA, storeA)
		if err != nil {
			t.Fatal(err)
		}
		engB := newTestEngine(t, opts)
		projB := LoadMap("app", files)
		if _, err := engB.AnalyzeContextStore(ctx, projB, storeB); err != nil {
			t.Fatal(err)
		}
		cold, err := newTestEngine(t, opts).Analyze(LoadMap("app", files))
		if err != nil {
			t.Fatal(err)
		}

		genA, genB := engA.projectGen("app"), engB.projectGen("app")
		if got, want := genState(genA), genState(genB); got != want {
			t.Errorf("%s: carried plan differs from a fresh one:\ncarried: %s\nfresh:   %s", step.name, got, want)
		}
		if step.carryReach && prevGen != nil && &genA.reach[0] != &prevGen.reach[0] {
			t.Errorf("%s: closures were recomputed, want them carried", step.name)
		}
		if got, want := indexState(projA), indexState(projB); got != want {
			t.Errorf("%s: derived index differs from a fresh one:\nderived: %s\nfresh:   %s", step.name, got, want)
		}
		if got, want := reportState(t, repA), reportState(t, cold); got != want {
			t.Errorf("%s: report differs from a cold scan:\nwarm: %s\ncold: %s", step.name, got, want)
		}
		blobA, blobB := storeBlob(t, dirA), storeBlob(t, dirB)
		if !bytes.Equal(blobA, blobB) {
			t.Errorf("%s: saved snapshot differs from a fresh engine's (%d vs %d bytes)", step.name, len(blobA), len(blobB))
		}
	}
}

// genState renders a generation's plan parts by path, so generations of
// different Project instances compare.
func genState(g *scanGen) string {
	var b strings.Builder
	for i, f := range g.files {
		var members []string
		for _, m := range g.closures[i] {
			members = append(members, m.Path)
		}
		var reach []string
		for _, j := range g.reach[i] {
			reach = append(reach, g.files[j].Path)
		}
		fmt.Fprintf(&b, "%s reach=%v closure=%v hash=%s fps=%v\n", f.Path, reach, members, g.cHashes[i], g.fps[i])
	}
	fps := make([]string, 0, len(g.tasks))
	for fp := range g.tasks {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	fmt.Fprintf(&b, "tasks=%v", fps)
	return b.String()
}

// indexState renders a project's lookup tables with each name resolved to
// its declaring file ("<stale>" for a declaration in no current AST).
func indexState(p *Project) string {
	declIn := make(map[*ast.FunctionDecl]string)
	for _, f := range p.Files {
		for _, fn := range f.AST.Funcs {
			declIn[fn] = f.Path
		}
	}
	render := func(names []string, resolve func(string) *ast.FunctionDecl) string {
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			path, ok := declIn[resolve(name)]
			if !ok {
				path = "<stale>"
			}
			fmt.Fprintf(&b, "%s@%s ", name, path)
		}
		return b.String()
	}
	var funcs, methods, paths, ambig []string
	for name := range p.funcs {
		funcs = append(funcs, name)
	}
	for name := range p.methods {
		methods = append(methods, name)
	}
	for path := range p.byPath {
		if f := p.File(path); f == nil || f.Path != path {
			path = "<stale>" + path
		}
		paths = append(paths, path)
	}
	for name := range p.ambig {
		ambig = append(ambig, name)
	}
	sort.Strings(paths)
	sort.Strings(ambig)
	return fmt.Sprintf("funcs=%s methods=%s paths=%v ambig=%v",
		render(funcs, p.ResolveFunc), render(methods, p.ResolveMethod), paths, ambig)
}

// reportState renders everything a report shows, AST pointers aside, and
// fails the test if a finding's nodes are not in the scanned project's ASTs.
func reportState(t *testing.T, rep *Report) string {
	t.Helper()
	ix := newNodeIndexer(rep.Project)
	for _, f := range rep.Findings {
		if _, ok := ix.encodeTask([]*Finding{f}, rep.Project.Files); !ok {
			t.Errorf("finding %s points outside the scanned project's ASTs", f.Candidate.Key())
		}
	}
	var diags []string
	for _, d := range rep.Diagnostics {
		diags = append(diags, fmt.Sprintf("%s|%s|%s|%s", d.Kind, d.File, d.Class, d.Message))
	}
	return fmt.Sprintf("findings=%v links=%d diags=%v", findingKeys(rep), len(rep.StoredLinks), diags)
}

// storeBlob returns the store's one snapshot blob.
func storeBlob(t *testing.T, dir string) []byte {
	t.Helper()
	paths := storeFiles(t, dir)
	if len(paths) != 1 {
		t.Fatalf("store holds %d snapshots, want 1", len(paths))
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrossFileSinkPersistsAndReuses pins that a finding whose sink sits in
// an inlined callee in another file is persisted — its nodes are addressed
// within the task's closure — and reused by a fresh engine, with the
// cross-file nodes rebound to the current project's AST.
func TestCrossFileSinkPersistsAndReuses(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := map[string]string{
		"lib.php":   `<?php function runq($q) { mysql_query("SELECT " . $q); }`,
		"index.php": `<?php runq($_GET['id']);`,
	}
	cold := scanWithStore(t, incrementalOpts(), files, store)
	if !hasCrossFileSink(cold, "index.php", "lib.php") {
		t.Fatal("no index.php finding sinks in lib.php; the check is vacuous")
	}
	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.Tasks != 0 || warm.Stats.TasksReused != cold.Stats.Tasks {
		t.Fatalf("warm scan executed %d and reused %d tasks, want 0 and %d",
			warm.Stats.Tasks, warm.Stats.TasksReused, cold.Stats.Tasks)
	}
	if !hasCrossFileSink(warm, "index.php", "lib.php") {
		t.Fatal("reused finding lost its cross-file sink")
	}
	lib := []*SourceFile{warm.Project.File("lib.php")}
	ix := newNodeIndexer(warm.Project)
	for _, f := range warm.Findings {
		c := f.Candidate
		if _, ok := ix.ref("lib.php", c.SinkCall, lib); !ok {
			t.Errorf("reused sink of %s is not a node of the current lib.php", c.Key())
		}
		for _, st := range c.Value.Trace {
			if _, ok := ix.ref(st.Pos.File, st.Node, warm.Project.Files); !ok {
				t.Errorf("reused trace step %q is not a node of the current project", st.Desc)
			}
		}
	}
	if got, want := findingKeys(warm), findingKeys(cold); !equalStrings(got, want) {
		t.Errorf("reused findings differ:\nwarm: %v\ncold: %v", got, want)
	}
}

func hasCrossFileSink(rep *Report, file, callee string) bool {
	for _, f := range rep.Findings {
		if f.Candidate.File == file && f.Candidate.SinkPos.File == callee {
			return true
		}
	}
	return false
}

// TestCarriedPlanConcurrentScans rescans one project name from several
// goroutines on one engine and store, each with its own edit chain, so
// generations, derived indexes and closures shared between scans are read
// concurrently (run under -race). Every report must equal a cold scan of
// the same files.
func TestCarriedPlanConcurrentScans(t *testing.T) {
	opts := incrementalOpts()
	e := newTestEngine(t, opts)
	store := openTestStore(t, t.TempDir())
	ctx := context.Background()
	base := LoadMap("app", carryFiles())
	if _, err := e.AnalyzeContextStore(ctx, base, store); err != nil {
		t.Fatal(err)
	}
	edits := []string{"lib.php", "page.php"}
	want := make(map[string]string)
	for _, path := range edits {
		files := carryFiles()
		files[path] += "\n<?php echo $_GET['more'];"
		rep, err := newTestEngine(t, opts).Analyze(LoadMap("app", files))
		if err != nil {
			t.Fatal(err)
		}
		want[path] = strings.Join(findingKeys(rep), "\n")
	}
	var wg sync.WaitGroup
	for _, path := range edits {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			prev := base
			for i := 0; i < 4; i++ {
				files := carryFiles()
				if i%2 == 1 {
					files[path] += "\n<?php echo $_GET['more'];"
				}
				p := LoadMapIncremental("app", files, prev)
				rep, err := e.AnalyzeContextStore(ctx, p, store)
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 {
					if got := strings.Join(findingKeys(rep), "\n"); got != want[path] {
						t.Errorf("edit of %s: findings differ from a cold scan:\n%s\nwant:\n%s", path, got, want[path])
					}
				}
				prev = p
			}
		}(path)
	}
	wg.Wait()
}
