package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
)

// fakeRunner hands out scans of one analyzed app; the scan numbered drop
// returns its findings with one finding missing.
type fakeRunner struct {
	app      *corpus.App
	findings []report.GroupedFinding
	drop     int
}

func (r *fakeRunner) prepare(i int) (scan, error) { return &fakeScan{r: r, drop: i == r.drop}, nil }
func (r *fakeRunner) afterTrace(*layers) error    { return nil }
func (r *fakeRunner) close() error                { return nil }

type fakeScan struct {
	r    *fakeRunner
	drop bool
}

func (s *fakeScan) run(bool) error { return nil }

func (s *fakeScan) check() error {
	f := s.r.findings
	if s.drop {
		f = f[1:]
	}
	_, err := checkScore(s.r.app, f)
	return err
}

func (s *fakeScan) observe(*layers) error { return nil }

func TestDroppedFindingCountsAsFailed(t *testing.T) {
	app := corpus.WebAppSuite(1)[0]
	eng, err := newEngine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.AnalyzeScan(context.Background(), core.LoadMap(appLabel(app), app.Files), core.ScanOpts{})
	if err != nil {
		t.Fatal(err)
	}
	findings := report.Group(rep)
	if _, err := checkScore(app, findings); err != nil {
		t.Fatalf("full report fails the ground truth: %v", err)
	}
	if len(findings) < 2 {
		t.Fatalf("app has %d findings; want several", len(findings))
	}

	ph, err := measure(&fakeRunner{app: app, findings: findings, drop: 3}, loopSpec{clients: 1, minScans: 10})
	if err != nil {
		t.Fatal(err)
	}
	res := endToEnd(ph, 0)
	if res.Correct || res.Attempted != 10 || res.Failed != 1 {
		t.Fatalf("correct %v, attempted %d, failed %d; want false, 10, 1", res.Correct, res.Attempted, res.Failed)
	}
	if got := res.Metrics["correct_share"].Value; got != 0.9 {
		t.Fatalf("correct_share = %v, want 0.9", got)
	}
}

func TestPassTotalsMustMatchTableVI(t *testing.T) {
	r := &wapdWebapps{suite: make([]*corpus.App, 2), passes: make(map[int]*passTotals)}
	half := &report.Score{DetectedVulns: map[corpus.Group]int{corpus.GroupSQLI: tableVIDetected / 2}, PredictedFP: tableVIFPP / 2, UnpredictedFP: tableVIFP / 2}
	rest := &report.Score{
		DetectedVulns: map[corpus.Group]int{corpus.GroupXSS: tableVIDetected - tableVIDetected/2},
		PredictedFP:   tableVIFPP - tableVIFPP/2,
		UnpredictedFP: tableVIFP - tableVIFP/2,
	}
	if err := r.addToPass(0, half); err != nil {
		t.Fatalf("incomplete pass: %v", err)
	}
	if err := r.addToPass(0, rest); err != nil {
		t.Fatalf("pass with Table VI totals: %v", err)
	}
	if err := r.addToPass(1, half); err != nil {
		t.Fatal(err)
	}
	if err := r.addToPass(1, half); err == nil {
		t.Fatal("pass off Table VI accepted")
	}
}

func TestLoopCollectsMinimumScans(t *testing.T) {
	app := &corpus.App{Name: "empty"}
	ph, err := measure(&fakeRunner{app: app, drop: -1}, loopSpec{clients: 2, dur: time.Millisecond, minScans: 100, layers: newLayers()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ph.lat) < 100 || len(ph.traced) < 100 || ph.failed != 0 {
		t.Fatalf("%d untraced and %d traced scans, %d failed; want at least 100 of each", len(ph.lat), len(ph.traced), ph.failed)
	}
}
