package main

import (
	"bytes"
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/ml"
	"repro/internal/php/lexer"
	"repro/internal/php/parser"
	"repro/internal/report"
	"repro/internal/symptom"
)

// replayer re-runs the layers that execute inside a scan, one call at a
// time on the scan's own inputs, so each layer's cost can be timed alone.
// It owns an extractor and an ensemble configured like the engine's.
type replayer struct {
	extractor *symptom.Extractor
	ensemble  *ml.Ensemble
}

func newReplayer() (*replayer, error) {
	ens := ml.NewTop3(engineSeed)
	if err := ens.Train(dataset.Generate(dataset.Config{Seed: engineSeed})); err != nil {
		return nil, err
	}
	dyn, err := weaponDynamics()
	if err != nil {
		return nil, err
	}
	return &replayer{extractor: symptom.NewExtractor(dyn), ensemble: ens}, nil
}

// frontEnd replays lexing, parsing and lowering of files.
func (r *replayer) frontEnd(l *layers, files []*core.SourceFile) {
	for _, f := range files {
		t := time.Now()
		toks, _ := lexer.Tokens(f.Path, f.Src)
		l.addReplayMS("lexer.ms", time.Since(t))
		l.addReplay("lexer.tokens", float64(len(toks)))

		t = time.Now()
		_, _ = parser.Parse(f.Path, f.Src)
		l.addReplayMS("parser.ms", time.Since(t))

		a := readRuntime().allocs
		t = time.Now()
		ir.LowerFile(f.AST)
		l.addReplayMS("ir.lower_ms", time.Since(t))
		l.addReplay("ir.lower_alloc_mb", (readRuntime().allocs-a)/(1<<20))
	}
}

// findings replays symptom extraction and the ensemble vote for findings
// whose files are in files.
func (r *replayer) findings(l *layers, fs []*core.Finding, files map[string]*core.SourceFile) {
	for _, f := range fs {
		src := files[f.Candidate.File]
		if src == nil {
			continue
		}
		t := time.Now()
		sym := r.extractor.Extract(f.Candidate, src.AST)
		l.addReplayMS("symptom.extract_ms", time.Since(t))

		vec := symptom.NewVectorFromSet(sym, false)
		inst := ml.NewInstance(vec.Attrs, false)
		t = time.Now()
		r.ensemble.Predict(inst.Features)
		l.addReplayMS("ml.predict_ms", time.Since(t))
	}
}

// scan replays every layer inside a cold scan of the project: the front
// end over all its files, then the analysis (untimed, to obtain the
// candidates), then symptoms and ML over every finding.
func (r *replayer) scan(l *layers, eng *core.Engine, proj *core.Project) (*core.Report, error) {
	r.frontEnd(l, proj.Files)
	rep, err := eng.AnalyzeScan(context.Background(), proj, core.ScanOpts{})
	if err != nil {
		return nil, err
	}
	files := make(map[string]*core.SourceFile, len(proj.Files))
	for _, f := range proj.Files {
		files[f.Path] = f
	}
	r.findings(l, rep.Findings, files)
	l.replayDone()
	return rep, nil
}

// scanStats records the engine's own account of one scan.
func scanStats(l *layers, s *core.ScanStats) {
	taskCounts(l, s.Tasks, s.TasksSkipped, s.TasksReused)
	l.add("core.fused_passes", float64(s.FusedPasses))
	l.add("core.fused_demoted", float64(s.FusedDemoted))
	l.add("core.fingerprint_hits", float64(s.FingerprintHits))
	l.add("taint.steps", float64(s.TotalSteps))
	l.add("taint.summary_hits", float64(s.CacheHits))
	l.add("taint.summary_lookups", float64(s.CacheHits+s.CacheMisses))
	var wall time.Duration
	for _, cs := range s.ByClass {
		wall += cs.Wall
		l.add("taint.candidates", float64(cs.Findings))
	}
	l.addMS("taint.class_wall_ms", wall)
	l.addMS("core.load_parse_wall_ms", s.ParseWall)
	if s.IR != nil {
		l.add("ir.instrs", float64(s.IR.Instrs))
		l.add("ir.blocks", float64(s.IR.Blocks))
		l.addMS("ir.lower_wall_ms", s.IR.LowerWall)
	}
}

// jsonStats is scanStats for a report that arrived as JSON (the server's
// per-class wall times are whole milliseconds).
func jsonStats(l *layers, s *report.JSONScanStats) {
	taskCounts(l, s.Tasks, s.TasksSkipped, s.TasksReused)
	l.add("core.fused_passes", float64(s.FusedPasses))
	l.add("core.fused_demoted", float64(s.FusedDemoted))
	l.add("core.fingerprint_hits", float64(s.FingerprintHits))
	l.add("taint.steps", float64(s.TotalSteps))
	l.add("taint.summary_hits", float64(s.CacheHits))
	l.add("taint.summary_lookups", float64(s.CacheHits+s.CacheMisses))
	for _, cs := range s.ByClass {
		l.add("taint.class_wall_ms", float64(cs.WallMS))
		l.add("taint.candidates", float64(cs.Findings))
	}
	l.add("core.load_parse_wall_ms", s.ParseWallMS)
	if s.IR != nil {
		l.add("ir.instrs", float64(s.IR.Instrs))
		l.add("ir.blocks", float64(s.IR.Blocks))
		l.add("ir.lower_wall_ms", s.IR.LowerWallMS)
	}
}

// taskCounts records the task grid: tasks executed, skipped by the sink
// prefilter and satisfied from the result store.
func taskCounts(l *layers, executed, skipped, reused int) {
	l.add("core.tasks", float64(executed))
	l.add("core.tasks_skipped", float64(skipped))
	l.add("core.tasks_reused", float64(reused))
	l.add("core.tasks_planned", float64(executed+skipped+reused))
	l.add("core.tasks_needed", float64(executed+reused))
}

// render writes the report as JSON, the bytes a CLI or CI caller reads.
func render(rep *core.Report) (*bytes.Buffer, error) {
	var buf bytes.Buffer
	err := report.WriteJSON(&buf, rep)
	return &buf, err
}
