package core

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
)

// TestEngineRetainsNoEarlierScanAST scans several distinct projects on one
// long-lived engine (wapd's case) and checks that the ASTs of the earlier
// projects become unreachable once their reports are dropped: the symptom
// extractor's scope memo lives for one scan only, so nothing engine-wide
// pins an old project. Every project has top-level sinks, whose symptom
// scope is the *ast.File itself.
func TestEngineRetainsNoEarlierScanAST(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	const earlier = 3
	var freed atomic.Int32
	scan := func(i int, track bool) {
		p := LoadMap(fmt.Sprintf("app-%d", i), map[string]string{
			"index.php": vulnApp,
			"guard.php": guardedApp,
		})
		rep, err := e.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Findings) == 0 {
			t.Fatal("no findings: symptom extraction never ran")
		}
		if track {
			for _, f := range p.Files {
				runtime.SetFinalizer(f.AST, func(any) { freed.Add(1) })
			}
		}
	}
	for i := 0; i < earlier; i++ {
		scan(i, true)
	}
	// A later scan on the same engine, as a long-lived service would run.
	scan(earlier, false)
	want := int32(2 * earlier)
	for try := 0; try < 50 && freed.Load() < want; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got < want {
		t.Fatalf("%d of %d earlier-scan ASTs still reachable from the engine", want-got, want)
	}
	// The engine itself must stay live through the collections above.
	runtime.KeepAlive(e)
}

// TestScanIRCollectableAfterScan pins that the IR a scan lowers lives for
// that scan only: once the scan's stages have run, the lowered files must
// be collectable while the Project — which callers keep for parse reuse —
// and the report stay live. The scan is driven stage by stage so the test
// can reach the scan's IR cache.
func TestScanIRCollectableAfterScan(t *testing.T) {
	e := newEngine(t, Options{Mode: ModeWAPe, Seed: 1})
	p := LoadMap("app", map[string]string{
		"index.php": vulnApp,
		"guard.php": guardedApp,
	})
	ctx := context.Background()
	var freed atomic.Int32
	rep := func() *Report {
		stats := newStatsCollector()
		plan := e.planScan(ctx, p, nil, stats)
		exec := e.executePlan(ctx, p, plan, stats, ScanOpts{})
		if got := exec.irc.Stats().Files; got != int64(len(p.Files)) {
			t.Fatalf("scan lowered %d of %d files", got, len(p.Files))
		}
		for _, f := range p.Files {
			// A cache hit: the file was lowered by the scan.
			runtime.SetFinalizer(exec.irc.File(f.AST), func(*ir.File) { freed.Add(1) })
		}
		rep, err := e.mergeScan(ctx, plan, exec, stats, &Report{Project: p, Mode: ModeWAPe}, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()
	if len(rep.Findings) == 0 {
		t.Fatal("no findings: the scan ran no taint pass")
	}
	want := int32(len(p.Files))
	for try := 0; try < 50 && freed.Load() < want; try++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got < want {
		t.Fatalf("%d of %d lowered files still reachable after the scan", want-got, want)
	}
	runtime.KeepAlive(p)
	runtime.KeepAlive(rep)
	runtime.KeepAlive(e)
}
