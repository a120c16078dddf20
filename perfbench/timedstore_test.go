package main

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/resultstore"
)

// capabilities lists which optional store surfaces b has.
func capabilities(b resultstore.Backend) [4]bool {
	_, st := b.(resultstore.Statter)
	_, to := b.(resultstore.Toucher)
	_, q := b.(resultstore.Quarantiner)
	_, sr := b.(resultstore.StateReporter)
	return [4]bool{st, to, q, sr}
}

func TestWrapBackendForwardsCapabilities(t *testing.T) {
	mem := resultstore.NewMemBackend()
	disk, err := resultstore.NewDiskBackend(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	type bare struct{ resultstore.Backend }
	type reporting struct {
		resultstore.Backend
		resultstore.StateReporter
	}
	env := resultstore.NewEnvelope(mem, resultstore.EnvelopeConfig{})
	for name, b := range map[string]resultstore.Backend{
		"mem":       mem,
		"disk":      disk,
		"envelope":  env,
		"bare":      bare{mem},
		"reporting": reporting{mem, env},
	} {
		w, _ := wrapBackend(b)
		if got, want := capabilities(w), capabilities(b); got != want {
			t.Errorf("%s: wrapped capabilities %v, want %v", name, got, want)
		}
	}
}

// warmScanJSON runs a cold scan and a one-edit warm rescan of app against
// store with a fresh engine, returning both reports rendered without their
// schedule-dependent parts (duration and stats) and the warm scan's reuse.
func warmScanJSON(t *testing.T, app *corpus.App, store *resultstore.Store) (cold, warm []byte, reused int) {
	t.Helper()
	eng, err := newEngine()
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(app.Files))
	for p, src := range app.Files {
		files[p] = src
	}
	render := func(rep *core.Report) []byte {
		jr := report.ToJSON(rep)
		jr.DurationMS, jr.Stats = 0, nil
		b, err := json.Marshal(jr)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ctx := context.Background()
	proj := core.LoadMap(app.Name, files)
	rep, err := eng.AnalyzeScan(ctx, proj, core.ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	cold = render(rep)
	edit := app.SortedPaths()[0]
	files[edit] += "\n<!-- edit -->\n"
	rep, err = eng.AnalyzeScan(ctx, core.LoadMapIncremental(app.Name, files, proj), core.ScanOpts{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	return cold, render(rep), rep.Stats.TasksReused
}

func TestTimedStoreReportsIdentical(t *testing.T) {
	app := corpus.LargeApp(3, 30, 10)

	plain, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk, err := resultstore.NewDiskBackend(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, counters := wrapBackend(disk)
	timed, err := resultstore.OpenBackend(b, resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}

	cold1, warm1, reused1 := warmScanJSON(t, app, plain)
	cold2, warm2, reused2 := warmScanJSON(t, app, timed)
	if string(cold1) != string(cold2) || string(warm1) != string(warm2) {
		t.Fatal("reports through the timed store differ from the plain store's")
	}
	if reused1 == 0 || reused1 != reused2 {
		t.Fatalf("tasks reused: plain %d, timed %d; want equal and nonzero", reused1, reused2)
	}
	if counters.puts.Load() != 2 || counters.bytesWritten.Load() == 0 {
		t.Fatalf("timed store counted %d puts, %d bytes; want 2 puts", counters.puts.Load(), counters.bytesWritten.Load())
	}
}
