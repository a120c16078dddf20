package core

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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
