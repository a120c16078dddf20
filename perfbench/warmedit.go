package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/resultstore"
)

// Warm-edit sizing: at 1,200 files the O(project) part of a rescan
// dominates the one-file edit.
const (
	warmFiles    = 1200
	warmSnippets = 40
	warmReplays  = 20
)

type warmEdit struct {
	eng   *core.Engine
	app   *corpus.App // ground truth; edits only append HTML comments
	files map[string]string
	paths []string
	rng   *rand.Rand
	prev  *core.Project

	// store is the disk result store; a traced run opens it behind the
	// timing Backend wrapper, whose counters it reads.
	store    *resultstore.Store
	counters *storeCounters
	replay   *replayer
	// replays hold, for the first traced scans, the files the load
	// re-parsed and the findings in them, replayed after the loop.
	replays []warmReplay
}

type warmReplay struct {
	files    map[string]*core.SourceFile
	findings []*core.Finding
}

func setupWarmEdit(c config) (runner, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	r := newWarmInputs(c.seed)
	r.eng = eng
	app := r.app
	storeDir := filepath.Join(c.dir, "store")
	if c.trace {
		disk, err := resultstore.NewDiskBackend(storeDir, nil)
		if err != nil {
			return nil, err
		}
		b, counters := wrapBackend(disk)
		if r.store, err = resultstore.OpenBackend(b, resultstore.Options{}); err != nil {
			return nil, err
		}
		r.counters = counters
		if r.replay, err = newReplayer(); err != nil {
			return nil, err
		}
	} else if r.store, err = resultstore.Open(storeDir); err != nil {
		return nil, err
	}
	// The cold fill: every task executes and is persisted.
	proj := core.LoadMap(app.Name, r.files)
	rep, err := eng.AnalyzeScan(context.Background(), proj, core.ScanOpts{Store: r.store})
	if err != nil {
		return nil, err
	}
	if _, err := checkScore(app, report.Group(rep)); err != nil {
		return nil, fmt.Errorf("cold fill: %w", err)
	}
	r.prev = proj
	return r, nil
}

// newWarmInputs generates the workload's tree and its edit sequence. The
// tree is fixed, so every run rescans the same project; the seed picks the
// files edited.
func newWarmInputs(seed int64) *warmEdit {
	app := corpus.LargeApp(engineSeed, warmFiles, warmSnippets)
	r := &warmEdit{
		app:   app,
		files: make(map[string]string, len(app.Files)),
		paths: app.SortedPaths(),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for p, src := range app.Files {
		r.files[p] = src
	}
	return r
}

// nextEdit appends scan i's unique comment to a seeded-random file. The
// comment follows the file's closing tag, so findings and lines stay put.
func (r *warmEdit) nextEdit(i int) string {
	path := r.paths[r.rng.Intn(len(r.paths))]
	r.files[path] += fmt.Sprintf("\n<!-- perfbench edit %d -->\n", i)
	return path
}

func (r *warmEdit) prepare(i int) (scan, error) {
	r.nextEdit(i)
	return &warmScan{r: r}, nil
}

func (r *warmEdit) close() error { return nil }

type warmScan struct {
	r *warmEdit

	prev, proj         *core.Project
	rep                *core.Report
	bytes              int
	load, analyze, out time.Duration
}

func (s *warmScan) run(traced bool) error {
	if traced {
		s.r.counters.reset()
	}
	s.prev = s.r.prev
	t0 := time.Now()
	proj := core.LoadMapIncremental(s.r.app.Name, s.r.files, s.prev)
	t1 := time.Now()
	rep, err := s.r.eng.AnalyzeScan(context.Background(), proj, core.ScanOpts{Store: s.r.store})
	if err != nil {
		return err
	}
	t2 := time.Now()
	buf, err := render(rep)
	if err != nil {
		return err
	}
	s.r.prev, s.proj, s.rep, s.bytes = proj, proj, rep, buf.Len()
	if traced {
		s.load, s.analyze, s.out = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	return nil
}

func (s *warmScan) check() error {
	if s.rep.Degraded() {
		return fmt.Errorf("%s: degraded report", s.r.app.Name)
	}
	_, err := checkScore(s.r.app, report.Group(s.rep))
	return err
}

func (s *warmScan) observe(l *layers) error {
	l.addMS("core.load_ms", s.load)
	l.addMS("core.analyze_ms", s.analyze)
	l.addMS("report.render_ms", s.out)
	l.add("report.bytes", float64(s.bytes))
	scanStats(l, s.rep.Stats)
	s.r.counters.observe(l)
	l.scanDone()
	if len(s.r.replays) < warmReplays {
		// Only the files the load re-parsed ran the front end and taint.
		rp := warmReplay{files: make(map[string]*core.SourceFile)}
		for _, f := range s.proj.Files {
			if s.prev.File(f.Path) != f {
				rp.files[f.Path] = f
			}
		}
		for _, f := range s.rep.Findings {
			if rp.files[f.Candidate.File] != nil {
				rp.findings = append(rp.findings, f)
			}
		}
		s.r.replays = append(s.r.replays, rp)
	}
	return nil
}

// afterTrace replays the inner layers of the first traced scans.
func (r *warmEdit) afterTrace(l *layers) error {
	for _, rp := range r.replays {
		files := make([]*core.SourceFile, 0, len(rp.files))
		for _, f := range rp.files {
			files = append(files, f)
		}
		r.replay.frontEnd(l, files)
		r.replay.findings(l, rp.findings, rp.files)
		l.replayDone()
	}
	return nil
}
