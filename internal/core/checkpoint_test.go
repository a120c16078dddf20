package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/vuln"
)

// TestCheckpointEveryDisposition pins the checkpoint cadence: with
// CheckpointEvery 1 every dispositioned execution task flushes a partial
// snapshot except the last (the final persist on completion covers it), each
// flush invokes OnCheckpoint, and the count lands in Stats.Checkpoints.
func TestCheckpointEveryDisposition(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	var mu sync.Mutex
	type call struct{ done, total int }
	var calls []call
	e := newTestEngine(t, incrementalOpts())
	rep, err := e.AnalyzeScan(context.Background(), LoadMap("app", files), ScanOpts{
		Store:           store,
		CheckpointEvery: 1,
		OnCheckpoint: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			calls = append(calls, call{done, total})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Tasks < 2 {
		t.Fatalf("corpus executed %d tasks; checkpoint cadence check is vacuous", rep.Stats.Tasks)
	}
	if len(calls) != rep.Stats.Tasks-1 {
		t.Errorf("%d checkpoint calls for %d tasks, want tasks-1", len(calls), rep.Stats.Tasks)
	}
	for i, c := range calls {
		if c.total != rep.Stats.Tasks {
			t.Errorf("call %d total = %d, want %d", i, c.total, rep.Stats.Tasks)
		}
		if c.done < 1 || c.done >= c.total {
			t.Errorf("call %d done = %d out of range (total %d)", i, c.done, c.total)
		}
	}
	if rep.Stats.Checkpoints != len(calls) {
		t.Errorf("Stats.Checkpoints = %d, want %d", rep.Stats.Checkpoints, len(calls))
	}
	// The final persist still ran: a warm rescan reuses everything.
	warm := scanWithStore(t, incrementalOpts(), files, store)
	if warm.Stats.Tasks != 0 {
		t.Errorf("warm scan after checkpointed scan executed %d tasks", warm.Stats.Tasks)
	}
}

// TestCheckpointResumeAfterCancel is the crash-warmth claim at the engine
// layer: a scan cancelled mid-way leaves its completed tasks checkpointed, so
// the resume reuses them and still produces the uninterrupted scan's findings.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	files := incrementalFiles()

	baseline := scanWithStore(t, incrementalOpts(), files, openTestStore(t, t.TempDir()))
	if len(baseline.Findings) == 0 {
		t.Fatal("corpus produced no findings; resume check is vacuous")
	}

	// Cancel at the start of the third task: tasks one and two completed and
	// were checkpointed, the rest die with the scan.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	started := 0
	opts := incrementalOpts()
	opts.TaskHook = func(file string, class vuln.ClassID) {
		mu.Lock()
		defer mu.Unlock()
		started++
		if started == 3 {
			cancel()
		}
	}
	e := newTestEngine(t, opts)
	if _, err := e.AnalyzeScan(ctx, LoadMap("app", files), ScanOpts{
		Store:           store,
		CheckpointEvery: 1,
	}); err == nil {
		t.Log("cancelled scan completed anyway; resume check may be vacuous")
	}

	// The resume: a fresh engine against the checkpointed store.
	e2 := newTestEngine(t, incrementalOpts())
	resumed, err := e2.AnalyzeScan(context.Background(), LoadMap("app", files), ScanOpts{
		Store:   store,
		Resumes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.TasksReused == 0 {
		t.Error("resume reused nothing; mid-scan checkpoints were lost")
	}
	if resumed.Stats.Resumes != 1 {
		t.Errorf("Stats.Resumes = %d, want 1", resumed.Stats.Resumes)
	}
	if got, want := findingKeys(resumed), findingKeys(baseline); !equalStrings(got, want) {
		t.Errorf("resumed findings differ from the uninterrupted scan:\nresumed: %v\nbaseline: %v", got, want)
	}
}

// TestCheckpointsOffByDefault pins that plain scans never pay the mid-scan
// save I/O: without CheckpointEvery the callback must not fire and the stats
// stay silent.
func TestCheckpointsOffByDefault(t *testing.T) {
	store := openTestStore(t, t.TempDir())
	called := 0
	e := newTestEngine(t, incrementalOpts())
	rep, err := e.AnalyzeScan(context.Background(), LoadMap("app", incrementalFiles()), ScanOpts{
		Store:        store,
		OnCheckpoint: func(done, total int) { called++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if called != 0 {
		t.Errorf("OnCheckpoint fired %d time(s) with CheckpointEvery 0", called)
	}
	if rep.Stats.Checkpoints != 0 {
		t.Errorf("Stats.Checkpoints = %d, want 0", rep.Stats.Checkpoints)
	}
}

// TestCheckpointBlobMatchesPlainScan pins the single encode path: a task
// that completes cleanly on its first attempt is encoded once, at
// completion, and mid-scan checkpoints and the final persist both build
// their snapshots from those entries. On a corpus of multi-lane file groups
// the final snapshot blob must therefore be byte-identical whether the scan
// checkpointed after every disposition or never, at sequential and parallel
// schedules. No file calls into another, so no shared summary crosses tasks
// and the persisted step counts do not depend on the schedule.
func TestCheckpointBlobMatchesPlainScan(t *testing.T) {
	files := map[string]string{
		"a.php": `<?php $id = $_GET['id']; mysql_query("SELECT * FROM t WHERE id=" . $id); echo $id;`,
		"b.php": `<?php function show($v) { echo "<b>" . $v . "</b>"; }
show($_POST['n']); mysql_query("DELETE FROM t WHERE n=" . $_POST['n']);`,
		"c.php": `<?php $q = $_COOKIE['c']; echo htmlentities($q); mysql_query("SELECT " . mysql_real_escape_string($q));`,
		"d.php": `<?php echo $_GET['x'];`,
	}
	for _, par := range []int{1, 3} {
		var blobs [2][]byte
		for k, every := range []int{0, 1} {
			opts := incrementalOpts()
			opts.Parallelism = par
			dir := t.TempDir()
			rep, err := newTestEngine(t, opts).AnalyzeScan(context.Background(), LoadMap("app", files), ScanOpts{
				Store:           openTestStore(t, dir),
				CheckpointEvery: every,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Stats.FusedPasses == 0 || len(rep.Findings) == 0 {
				t.Fatalf("parallelism %d: %d fused passes, %d findings; blob check is vacuous",
					par, rep.Stats.FusedPasses, len(rep.Findings))
			}
			if every > 0 && rep.Stats.Checkpoints == 0 {
				t.Fatalf("parallelism %d: no checkpoint was saved; blob check is vacuous", par)
			}
			blobs[k] = storeBlob(t, dir)
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Errorf("parallelism %d: final snapshot differs with checkpoints (%d vs %d bytes)",
				par, len(blobs[1]), len(blobs[0]))
		}
	}
}
