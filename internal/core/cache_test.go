package core

// Tests for the shared cross-task summary cache, the sink pre-filter and
// the partial-report accounting fixes. The cache's contract is behavioral
// equivalence: at any Parallelism, with the cache and pre-filter on or off,
// a scan produces identical findings — so most tests here compare full
// report signatures across configurations rather than poking at cache
// internals.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/taint"
	"repro/internal/vuln"
)

// valueSig renders the full content of a taint value, excluding AST node
// pointers (which differ in identity but never in meaning across runs).
func valueSig(v taint.Value) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%v", v.Tainted)
	for _, s := range v.Sources {
		fmt.Fprintf(&b, "|src=%s@%s:%d:%d", s.Name, s.Pos.File, s.Pos.Line, s.Pos.Column)
	}
	for _, s := range v.Sanitizers {
		fmt.Fprintf(&b, "|san=%s", s)
	}
	for _, st := range v.Trace {
		fmt.Fprintf(&b, "|step=%s@%s:%d:%d", st.Desc, st.Pos.File, st.Pos.Line, st.Pos.Column)
	}
	return b.String()
}

// reportSignature serializes everything observable about a report's
// findings, in order, so two reports can be compared for exact equality.
func reportSignature(rep *Report) string {
	var b strings.Builder
	for _, f := range rep.Findings {
		c := f.Candidate
		fmt.Fprintf(&b, "%s|file=%s|fn=%s|fp=%v|votes=%v|%s\n",
			c.Key(), c.File, c.EnclosingFunc, f.PredictedFP, f.Votes, valueSig(c.Value))
	}
	fmt.Fprintf(&b, "links=%d\n", len(rep.StoredLinks))
	for _, l := range rep.StoredLinks {
		fmt.Fprintf(&b, "link=%s:%s->%s\n", l.Table, l.Write.Key(), l.Read.Key())
	}
	for _, d := range rep.Diagnostics {
		fmt.Fprintf(&b, "diag=%s|%s|%s\n", d.File, d.Class, d.Kind)
	}
	return b.String()
}

// scanWith runs one scan of files under the given cache/prefilter/worker
// configuration and returns its report.
func scanWith(t *testing.T, p *Project, parallelism int, disableCache, disablePrefilter bool) *Report {
	t.Helper()
	e := newTestEngine(t, Options{
		Parallelism:          parallelism,
		DisableSummaryCache:  disableCache,
		DisableSinkPrefilter: disablePrefilter,
	})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// sharedHelperProject is a project whose files repeatedly call helpers
// declared in a shared library file — the shape the summary cache exists
// for. It includes an ambiguous helper (declared twice with different
// taint behavior) to exercise the purity guard.
func sharedHelperProject() *Project {
	return LoadMap("cacheapp", map[string]string{
		"lib.php": `<?php
function fetch_id() { return $_GET['id']; }
function show($x) { echo $_GET['q']; return $x; }
function run_sql($q) { mysql_query("SELECT * FROM t WHERE id=" . $q); }
function outer1() { return inner(); }
function inner() { return $_GET['deep']; }`,
		"amb.php": `<?php
function inner() { return "safe"; }
echo inner();
show(1);`,
		"a.php": `<?php
show(1);
run_sql(fetch_id());
echo outer1();`,
		"b.php": `<?php
show(1);
echo inner();
mysql_query("UPDATE t SET v=1 WHERE k=" . fetch_id());`,
	})
}

// TestFindingsIdenticalCacheOnOff is the cache's core contract: byte-equal
// findings with the cache and pre-filter enabled vs disabled, sequential
// and parallel, on both a hand-built adversarial project and a generated
// application.
func TestFindingsIdenticalCacheOnOff(t *testing.T) {
	apps := map[string]*Project{"helpers": sharedHelperProject()}
	app := corpus.WebAppSuite(1)[2]
	apps["corpus"] = LoadMap(app.Name, app.Files)

	for name, p := range apps {
		baseline := reportSignature(scanWith(t, p, 1, true, true))
		if !strings.Contains(baseline, "t=true") {
			t.Fatalf("%s: baseline scan found nothing; test is vacuous", name)
		}
		for _, par := range []int{1, 8} {
			got := reportSignature(scanWith(t, p, par, false, false))
			if got != baseline {
				t.Errorf("%s: cache+prefilter at parallelism %d changed the findings\nbaseline:\n%s\ngot:\n%s",
					name, par, baseline, got)
			}
		}
	}
}

// TestSharedCacheIsExercised guards against the identity test passing
// vacuously because nothing was ever cached: the helper project must
// produce commits and cross-task hits.
func TestSharedCacheIsExercised(t *testing.T) {
	rep := scanWith(t, sharedHelperProject(), 1, false, false)
	if rep.Stats == nil {
		t.Fatal("report has no stats")
	}
	if rep.Stats.CacheEntries == 0 {
		t.Error("no shared summaries were committed")
	}
	if rep.Stats.CacheHits == 0 {
		t.Error("no shared summaries were consumed")
	}
	if rep.Stats.TasksSkipped == 0 {
		t.Error("sink pre-filter skipped nothing")
	}
}

// TestPanickingTaskLeavesNoCacheEntry injects a panic into every task and
// asserts no pending summaries were committed: a faulting task must never
// publish to the shared cache.
func TestPanickingTaskLeavesNoCacheEntry(t *testing.T) {
	p := sharedHelperProject()
	clean := scanWith(t, p, 1, false, false)
	if clean.Stats.CacheEntries == 0 {
		t.Fatal("clean scan commits nothing; the panic assertion below would be vacuous")
	}

	e := newTestEngine(t, Options{
		Parallelism: 1,
		TaskHook: func(string, vuln.ClassID) {
			// The hook runs inside the task goroutine, after the analyzer
			// would have computed fills on a real fault; panicking here
			// models a taint-engine bug at task end just as well because
			// commit happens strictly after the outcome is received clean.
			panic("injected")
		},
	})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.CacheEntries != 0 {
		t.Errorf("panicking tasks committed %d cache entries, want 0", rep.Stats.CacheEntries)
	}
	if len(rep.Findings) != 0 {
		t.Errorf("panicking tasks leaked %d findings", len(rep.Findings))
	}
}

// TestPartialPanicDoesNotPoisonCache panics only the tasks of one file and
// asserts every other file's findings are identical to a fault-free scan —
// i.e. whatever the faulting tasks did before dying never reached the
// shared cache that healthy tasks consume.
func TestPartialPanicDoesNotPoisonCache(t *testing.T) {
	p := sharedHelperProject()
	want := scanWith(t, p, 1, false, false)
	e := newTestEngine(t, Options{
		Parallelism: 1,
		TaskHook: func(file string, _ vuln.ClassID) {
			if file == "a.php" {
				panic("injected")
			}
		},
	})
	rep, err := e.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	strip := func(r *Report) string {
		var b strings.Builder
		for _, f := range r.Findings {
			if f.Candidate.File == "a.php" {
				continue
			}
			fmt.Fprintf(&b, "%s|%s|%v|%s\n", f.Candidate.Key(), f.Candidate.File, f.PredictedFP, valueSig(f.Candidate.Value))
		}
		return b.String()
	}
	if got, wantSig := strip(rep), strip(want); got != wantSig {
		t.Errorf("healthy tasks changed under partial fault injection\nwant:\n%s\ngot:\n%s", wantSig, got)
	}
}

// TestPrefilterKeepsCrossFileSinkTasks pins the pre-filter's soundness on
// the cross-file case: the calling file contains no sink token itself, the
// sink lives in a helper another file declares, and the finding must
// survive.
func TestPrefilterKeepsCrossFileSinkTasks(t *testing.T) {
	p := LoadMap("crossfile", map[string]string{
		"caller.php": `<?php run_sql($_GET['id']);`,
		"lib.php":    `<?php function run_sql($q) { mysql_query("SELECT * FROM t WHERE id=" . $q); }`,
	})
	rep := scanWith(t, p, 1, false, false)
	if !hasFinding(rep, "caller.php", vuln.SQLI) {
		t.Error("pre-filter dropped the cross-file sink flow from caller.php")
	}
	if rep.Stats.TasksSkipped == 0 {
		t.Error("pre-filter skipped nothing on a near-empty project")
	}
}

// TestTimedOutTaskCountsAsDispositioned is the watchdog accounting
// regression: a task abandoned by the per-task deadline has a diagnostic,
// so the scan-level cancellation account must not double-count it as
// incomplete.
func TestTimedOutTaskCountsAsDispositioned(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var n atomic.Int64
	e := newTestEngine(t, Options{
		Parallelism:          1,
		DisableSinkPrefilter: true,
		// The watchdog accounting under test is per-task, i.e. one-lane
		// passes: one class over four files gives four single-lane groups.
		// A multi-lane group's watchdog cut demotes instead of
		// dispositioning (fusedfault_test.go).
		Classes:     []vuln.ClassID{vuln.XSSR},
		TaskTimeout: 20 * time.Millisecond,
		TaskHook: func(string, vuln.ClassID) {
			switch n.Add(1) {
			case 1:
				// Stall past the deadline: the watchdog dispositions this
				// task with a timeout diagnostic.
				time.Sleep(400 * time.Millisecond)
			case 4:
				// Last of the four tasks: cancel mid-run so exactly this
				// one is genuinely incomplete.
				cancel()
				time.Sleep(400 * time.Millisecond)
			}
		},
	})
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	rep, err := e.AnalyzeContext(ctx, LoadMap("fault", map[string]string{
		"a.php": xssPage,
		"b.php": sqliPage,
		"c.php": xssPage,
		"d.php": sqliPage,
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var msg string
	for _, d := range rep.Diagnostics {
		if d.File == "" && strings.Contains(d.Message, "cancelled") {
			msg = d.Message
		}
	}
	if msg == "" {
		t.Fatalf("no scan-level cancellation diagnostic: %v", rep.Diagnostics)
	}
	if !strings.Contains(msg, "1 of 4 tasks incomplete") {
		t.Errorf("cancellation account = %q, want exactly 1 of 4 incomplete (timed-out task is dispositioned, not incomplete)", msg)
	}
}

// TestCancelledScanStillLinksStoredXSS is the partial-report regression: a
// cancelled scan whose completed subset contains both halves of a stored
// XSS must still report the link.
func TestCancelledScanStillLinksStoredXSS(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := LoadMap("blog", map[string]string{
		"comments.php": `<?php
$body = $_POST['body'];
mysql_query("INSERT INTO comments (body) VALUES ('" . $body . "')");
$res = mysql_query("SELECT body FROM comments");
$row = mysql_fetch_assoc($res);
echo "<li>" . $row['body'] . "</li>";
`,
		// Sorts after comments.php, so with Parallelism 1 every
		// comments.php task completes before the first zz.php task cancels.
		"zz.php": `<?php echo $_GET['x'];`,
	})
	e := newTestEngine(t, Options{
		Parallelism:          1,
		DisableSinkPrefilter: true,
		TaskHook: func(file string, _ vuln.ClassID) {
			if file == "zz.php" {
				cancel()
				time.Sleep(200 * time.Millisecond)
			}
		},
	})
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	rep, err := e.AnalyzeContext(ctx, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rep.StoredLinks) != 1 {
		t.Fatalf("partial report has %d stored links, want 1 (completed subset contains both halves)", len(rep.StoredLinks))
	}
	if rep.StoredLinks[0].Table != "COMMENTS" {
		t.Errorf("link table = %q", rep.StoredLinks[0].Table)
	}
}

// TestVulnerabilitiesMemoized pins the report-side fix: the vulnerability
// subset is computed once and the repeated-filter helpers reuse it.
func TestVulnerabilitiesMemoized(t *testing.T) {
	rep := scanWith(t, twoFileProject(), 1, false, false)
	v1 := rep.Vulnerabilities()
	v2 := rep.Vulnerabilities()
	if len(v1) == 0 {
		t.Fatal("no vulnerabilities; test is vacuous")
	}
	if &v1[0] != &v2[0] || len(v1) != len(v2) {
		t.Error("Vulnerabilities() recomputed the subset instead of memoizing")
	}
	// The derived helpers agree with the memoized subset.
	total := 0
	for _, n := range rep.CountByClass() {
		total += n
	}
	if total != len(v1) {
		t.Errorf("CountByClass sums to %d, want %d", total, len(v1))
	}
	if len(rep.VulnerableFiles()) == 0 {
		t.Error("VulnerableFiles is empty despite vulnerabilities")
	}
}
