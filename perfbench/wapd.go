package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
	"repro/internal/server"
)

// wapdWorkers is the server's worker count; the loop runs as many clients.
const wapdWorkers = 2

type wapdWebapps struct {
	eng    *core.Engine
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	suite  []*corpus.App
	bodies [][]byte
	// order is the seeded upload order; pass k is scans [54k, 54k+54),
	// which upload every package once.
	order []int

	mu     sync.Mutex
	passes map[int]*passTotals
	// rejected counts traced scans refused with 429.
	rejected atomic.Int64
	replay   *replayer
}

// passTotals accumulates one full pass's scores toward Table VI.
type passTotals struct {
	scans, detected, fpp, fp int
}

func setupWapd(c config) (runner, error) {
	eng, err := newEngine()
	if err != nil {
		return nil, err
	}
	// The suite is the paper's corpus; the seed orders the uploads, so every
	// run scans the same mix of package sizes.
	r := &wapdWebapps{
		eng:    eng,
		suite:  corpus.WebAppSuite(engineSeed),
		passes: make(map[int]*passTotals),
	}
	r.order = rand.New(rand.NewSource(c.seed)).Perm(len(r.suite))
	if r.bodies, err = suiteBodies(r.suite); err != nil {
		return nil, err
	}
	if c.trace {
		if r.replay, err = newReplayer(); err != nil {
			return nil, err
		}
	}
	if r.srv, err = server.New(server.Config{Engine: eng, Workers: wapdWorkers}); err != nil {
		return nil, err
	}
	r.ts = httptest.NewServer(r.srv.Handler())
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: wapdWorkers}}
	return r, nil
}

// suiteBodies encodes one POST /scan body per package.
func suiteBodies(suite []*corpus.App) ([][]byte, error) {
	out := make([][]byte, len(suite))
	for i, app := range suite {
		b, err := json.Marshal(server.ScanRequest{Name: appLabel(app), Files: app.Files})
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func appLabel(app *corpus.App) string { return app.Name + " " + app.Version }

func (r *wapdWebapps) prepare(i int) (scan, error) {
	n := len(r.suite)
	return &wapdScan{r: r, idx: r.order[i%n], pass: i / n}, nil
}

func (r *wapdWebapps) close() error {
	r.ts.Close()
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return r.srv.Drain(ctx)
}

// afterTrace replays one full pass of the suite in-process: the server's
// load, front end, symptoms, ML and rendering, timed call by call on a
// quiet process.
func (r *wapdWebapps) afterTrace(l *layers) error {
	l.add("server.rejected", float64(r.rejected.Load()))
	for _, app := range r.suite {
		t := time.Now()
		proj := core.LoadMap(appLabel(app), app.Files)
		l.addReplayMS("core.load_ms", time.Since(t))
		rep, err := r.replay.scan(l, r.eng, proj)
		if err != nil {
			return err
		}
		t = time.Now()
		buf, err := render(rep)
		if err != nil {
			return err
		}
		l.addReplayMS("report.render_ms", time.Since(t))
		l.addReplay("report.bytes", float64(buf.Len()))
	}
	return nil
}

type wapdScan struct {
	r         *wapdWebapps
	idx, pass int

	traced bool
	status int
	body   []byte
	lat    time.Duration
	resp   server.ScanResponse
}

func (s *wapdScan) run(traced bool) error {
	t := time.Now()
	resp, err := s.r.client.Post(s.r.ts.URL+"/scan", "application/json", bytes.NewReader(s.r.bodies[s.idx]))
	if err != nil {
		return err
	}
	s.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	if traced {
		s.traced, s.lat = true, time.Since(t)
	}
	return err
}

// errRejected marks a scan the server refused with 429.
var errRejected = errors.New("rejected by admission control (429)")

func (s *wapdScan) check() error {
	if s.status == http.StatusTooManyRequests {
		if s.traced {
			s.r.rejected.Add(1)
		}
		return errRejected
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("POST /scan: status %d", s.status)
	}
	if err := json.Unmarshal(s.body, &s.resp); err != nil {
		return fmt.Errorf("decode scan response: %w", err)
	}
	app := s.r.suite[s.idx]
	if s.resp.Error != "" || s.resp.Report == nil || s.resp.Report.Degraded {
		return fmt.Errorf("%s: scan error %q", app.Name, s.resp.Error)
	}
	score, err := checkScore(app, report.GroupedFromJSON(s.resp.Report))
	if err != nil {
		return err
	}
	return s.r.addToPass(s.pass, score)
}

// addToPass adds a package's score to its pass; the scan that completes a
// pass checks the pass totals against Table VI.
func (r *wapdWebapps) addToPass(pass int, s *report.Score) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.passes[pass]
	if t == nil {
		t = &passTotals{}
		r.passes[pass] = t
	}
	t.scans++
	t.detected += s.TotalDetected()
	t.fpp += s.PredictedFP
	t.fp += s.UnpredictedFP
	if t.scans < len(r.suite) {
		return nil
	}
	delete(r.passes, pass)
	if t.detected != tableVIDetected || t.fpp != tableVIFPP || t.fp != tableVIFP {
		return fmt.Errorf("pass %d totals %d detected, %d FPP, %d FP; Table VI has %d, %d, %d",
			pass, t.detected, t.fpp, t.fp, tableVIDetected, tableVIFPP, tableVIFP)
	}
	return nil
}

func (s *wapdScan) observe(l *layers) error {
	rep := s.resp.Report
	queue, analysis := float64(s.resp.QueueMS), float64(rep.DurationMS)
	l.add("server.queue_ms", queue)
	l.add("server.analysis_ms", analysis)
	l.add("server.other_ms", ms(s.lat)-queue-analysis)
	l.add("server.request_bytes", float64(len(s.r.bodies[s.idx])))
	l.add("server.response_bytes", float64(len(s.body)))
	l.add("core.analyze_ms", analysis)
	if rep.Stats != nil {
		jsonStats(l, rep.Stats)
	}
	l.scanDone()
	return nil
}
