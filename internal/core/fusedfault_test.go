package core

// Fault injection into multi-lane fused passes, on the same TaskHook harness
// as faultinject_test.go. The demotion contract pinned here: a panic or
// stall inside a multi-lane pass demotes that file's classes to one-lane
// passes with no lost or duplicated findings, transient faults are absorbed
// by the demotion (the rerun's fresh retry ladder, not the multi-lane
// attempt, decides terminality), and breaker charges land on the faulting
// class only — never on innocent lanes of the same group.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vuln"
)

// fusedFaultOpts forces every class onto every file so each file forms a
// multi-class fused group even for single-sink sources.
func fusedFaultOpts(opts Options) Options {
	opts.DisableSinkPrefilter = true
	if opts.Classes == nil {
		opts.Classes = []vuln.ClassID{vuln.SQLI, vuln.XSSR}
	}
	return opts
}

// findingCount counts findings for one (file, class), to catch duplication
// (a demoted lane dispositioned by both the fused pass and its rerun).
func findingCount(rep *Report, file string, class vuln.ClassID) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Candidate.File == file && f.Candidate.Class == class {
			n++
		}
	}
	return n
}

// TestFusedPanicDemotesWithoutLosingFindings panics inside the first fused
// invocation of one lane's task hook and asserts the demoted one-lane
// reruns recover every finding exactly once, with no diagnostics, no
// breaker charge, and the demotion visible only in the stats.
func TestFusedPanicDemotesWithoutLosingFindings(t *testing.T) {
	for _, par := range []int{1, 4} {
		var fired atomic.Bool
		e := newTestEngine(t, fusedFaultOpts(Options{
			Parallelism:      par,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Hour,
			TaskHook: func(file string, class vuln.ClassID) {
				if file == "a.php" && class == vuln.XSSR && fired.CompareAndSwap(false, true) {
					panic("transient fused fault")
				}
			},
		}))
		rep, err := e.Analyze(twoFileProject())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if n := findingCount(rep, "a.php", vuln.XSSR); n != 1 {
			t.Errorf("parallelism %d: a.php[xss-r] findings = %d, want exactly 1 (no loss, no duplication)", par, n)
		}
		if n := findingCount(rep, "b.php", vuln.SQLI); n != 1 {
			t.Errorf("parallelism %d: b.php[sqli] findings = %d, want exactly 1", par, n)
		}
		if len(rep.Diagnostics) != 0 {
			t.Errorf("parallelism %d: demoted transient fault left diagnostics: %v", par, rep.Diagnostics)
		}
		if rep.Degraded() {
			t.Errorf("parallelism %d: absorbed fused fault must not degrade the report", par)
		}
		if rep.Stats.FusedDemoted != 2 {
			t.Errorf("parallelism %d: FusedDemoted = %d, want 2 (both lanes of a.php's group)", par, rep.Stats.FusedDemoted)
		}
		// The fused fault itself must not be charged: with threshold 1 any
		// breaker charge would trip the class open.
		for id, st := range e.BreakerSnapshot() {
			if st.State != BreakerClosed || st.Faults != 0 {
				t.Errorf("parallelism %d: breaker %s = %s/%d faults, want closed/0", par, id, st.State, st.Faults)
			}
		}
	}
}

// TestFusedStallDemotesOnWatchdog stalls the first fused invocation past the
// task deadline: the watchdog abandons the fused attempt, and the demoted
// reruns (which run fast) recover all findings with no timeout diagnostics.
func TestFusedStallDemotesOnWatchdog(t *testing.T) {
	var fired atomic.Bool
	e := newTestEngine(t, fusedFaultOpts(Options{
		Parallelism: 2,
		TaskTimeout: 100 * time.Millisecond,
		TaskHook: func(file string, class vuln.ClassID) {
			if file == "a.php" && class == vuln.XSSR && fired.CompareAndSwap(false, true) {
				time.Sleep(2 * time.Second)
			}
		},
	}))
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	if n := findingCount(rep, "a.php", vuln.XSSR); n != 1 {
		t.Errorf("a.php[xss-r] findings = %d, want 1 after watchdog demotion", n)
	}
	if n := len(diagsOfKind(rep, DiagTimeout)); n != 0 {
		t.Errorf("%d timeout diagnostics after demotion recovery, want 0: %v", n, rep.Diagnostics)
	}
	if rep.Degraded() {
		t.Error("watchdog demotion with clean reruns must not degrade the report")
	}
	if rep.Stats.FusedDemoted != 2 {
		t.Errorf("FusedDemoted = %d, want 2", rep.Stats.FusedDemoted)
	}
}

// TestFusedPersistentFaultChargesOnlyFaultingClass keeps one class panicking
// through fused passes and demoted reruns alike, with breakers armed. The
// charge must land on the faulting class only: its breaker trips at the
// threshold and later tasks are skipped, while the innocent lanes that
// shared its fused groups keep their findings and their breakers stay
// closed.
func TestFusedPersistentFaultChargesOnlyFaultingClass(t *testing.T) {
	e := newTestEngine(t, fusedFaultOpts(Options{
		Parallelism:      1, // deterministic group order: breaker trips mid-scan
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		TaskHook: func(file string, class vuln.ClassID) {
			if class == vuln.XSSR {
				panic("class-wide fault")
			}
		},
	}))
	rep, err := e.Analyze(breakerProject())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(diagsOfKind(rep, DiagPanic)); got != 2 {
		t.Errorf("%d panic diagnostics, want 2 (the threshold): %v", got, rep.Diagnostics)
	}
	for _, d := range diagsOfKind(rep, DiagPanic) {
		if d.Class != vuln.XSSR {
			t.Errorf("panic diagnostic charged to %s, want xss-r only", d.Class)
		}
	}
	if got := len(diagsOfKind(rep, DiagBreakerOpen)); got != 3 {
		t.Errorf("%d breaker-open diagnostics, want 3 (c, d and q after the trip): %v", got, rep.Diagnostics)
	}
	for _, d := range diagsOfKind(rep, DiagBreakerOpen) {
		if d.Class != vuln.XSSR {
			t.Errorf("breaker-open diagnostic for class %s, want xss-r only", d.Class)
		}
	}
	if !hasFinding(rep, "q.php", vuln.SQLI) {
		t.Error("innocent class lost its finding while sharing fused groups with the faulting one")
	}
	snap := e.BreakerSnapshot()
	if st := snap[vuln.XSSR]; st.State != BreakerOpen {
		t.Errorf("xss-r breaker = %s, want open", st.State)
	}
	if st, ok := snap[vuln.SQLI]; ok && (st.State != BreakerClosed || st.Faults != 0) {
		t.Errorf("sqli breaker = %s/%d faults, want closed/0", st.State, st.Faults)
	}
}

// TestFusedStatsAccounting pins the fused counters on a fault-free scan:
// every file's runnable classes ride one fused pass, no demotions.
func TestFusedStatsAccounting(t *testing.T) {
	e := newTestEngine(t, fusedFaultOpts(Options{Parallelism: 1}))
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Stats
	if s.FusedPasses != 2 {
		t.Errorf("FusedPasses = %d, want 2 (one per file)", s.FusedPasses)
	}
	if s.FusedTasks != s.Tasks || s.FusedTasks != 4 {
		t.Errorf("FusedTasks = %d (Tasks = %d), want all 4 tasks fused", s.FusedTasks, s.Tasks)
	}
	if s.FusedDemoted != 0 {
		t.Errorf("FusedDemoted = %d, want 0 on a fault-free scan", s.FusedDemoted)
	}

	// With one class every group is a one-lane pass, which the multi-lane
	// counters do not count.
	e2 := newTestEngine(t, fusedFaultOpts(Options{Parallelism: 1, Classes: []vuln.ClassID{vuln.XSSR}}))
	rep2, err := e2.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	if s := rep2.Stats; s.FusedPasses != 0 || s.FusedTasks != 0 || s.FusedDemoted != 0 {
		t.Errorf("one-lane scan recorded multi-lane counters: %d/%d/%d", s.FusedPasses, s.FusedTasks, s.FusedDemoted)
	}
}
