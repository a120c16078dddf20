package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
)

// Cold-large sizing: a Play_sms-scale tree, 18 planted SQLI spots.
const (
	coldFiles    = 120
	coldSnippets = 40
	// coldReplays bounds the traced scans whose inner layers are replayed.
	coldReplays = 10
)

// coldApp is the never-seen tree of cold-large scan i.
func coldApp(seed int64, i int) *corpus.App {
	return corpus.LargeApp(seed+int64(i), coldFiles, coldSnippets)
}

type coldLarge struct {
	// eng is trained once; each scan runs on a fresh engine derived from
	// it, as a CLI process would, so no engine-held memo spans projects.
	eng    *core.Engine
	seed   int64
	dir    string
	last   string // tree of the previous scan, removed by the next prepare
	replay *replayer
	// replayScans are the first traced scans, replayed after the loop.
	replayScans []int
}

func setupColdLarge(c config) (runner, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	r := &coldLarge{eng: eng, seed: c.seed, dir: c.dir}
	if c.trace {
		if r.replay, err = newReplayer(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *coldLarge) prepare(i int) (scan, error) {
	if r.last != "" {
		if err := os.RemoveAll(r.last); err != nil {
			return nil, err
		}
	}
	app := coldApp(r.seed, i)
	dir := filepath.Join(r.dir, fmt.Sprintf("tree-%d", i))
	r.last = dir
	if err := writeTree(dir, app.Files); err != nil {
		return nil, err
	}
	eng, err := r.eng.WithWeapons(0, nil)
	if err != nil {
		return nil, err
	}
	// Like a fresh process, the scan starts with no garbage on the heap,
	// the benchmark's own tree generation included.
	runtime.GC()
	return &coldScan{r: r, i: i, eng: eng, app: app, dir: dir}, nil
}

// close leaves the last tree to the removal of the run's work directory.
func (r *coldLarge) close() error { return nil }

// writeTree writes files under dir.
func writeTree(dir string, files map[string]string) error {
	for path, src := range files {
		full := filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

type coldScan struct {
	r   *coldLarge
	i   int
	eng *core.Engine
	app *corpus.App
	dir string

	rep                *core.Report
	bytes              int
	load, analyze, out time.Duration
}

func (s *coldScan) run(traced bool) error {
	t0 := time.Now()
	proj, err := core.LoadDir(s.app.Name, s.dir)
	if err != nil {
		return err
	}
	t1 := time.Now()
	rep, err := s.eng.AnalyzeScan(context.Background(), proj, core.ScanOpts{})
	if err != nil {
		return err
	}
	t2 := time.Now()
	buf, err := render(rep)
	if err != nil {
		return err
	}
	s.rep, s.bytes = rep, buf.Len()
	if traced {
		s.load, s.analyze, s.out = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	return nil
}

func (s *coldScan) check() error {
	if s.rep.Degraded() {
		return fmt.Errorf("%s: degraded report", s.app.Name)
	}
	_, err := checkScore(s.app, report.Group(s.rep))
	return err
}

func (s *coldScan) observe(l *layers) error {
	l.addMS("core.load_ms", s.load)
	l.addMS("core.analyze_ms", s.analyze)
	l.addMS("report.render_ms", s.out)
	l.add("report.bytes", float64(s.bytes))
	scanStats(l, s.rep.Stats)
	l.scanDone()
	if len(s.r.replayScans) < coldReplays {
		s.r.replayScans = append(s.r.replayScans, s.i)
	}
	return nil
}

// afterTrace replays the inner layers of the first traced scans, on a
// quiet process so the replay's garbage never lands on a timed scan.
func (r *coldLarge) afterTrace(l *layers) error {
	for _, i := range r.replayScans {
		app := coldApp(r.seed, i)
		if _, err := r.replay.scan(l, r.eng, core.LoadMap(app.Name, app.Files)); err != nil {
			return err
		}
	}
	return nil
}
