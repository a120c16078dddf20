package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is what a workload's set-up receives.
type config struct {
	seed  int64
	dir   string // scratch directory private to this set-up
	trace bool
}

type workload struct {
	clients int
	// warmup is how many scans run, and must pass, before measuring.
	warmup int
	setup  func(config) (runner, error)
}

var workloads = map[string]workload{
	"cold-large":   {clients: 1, warmup: 3, setup: setupColdLarge},
	"warm-edit":    {clients: 1, warmup: 10, setup: setupWarmEdit},
	"wapd-webapps": {clients: wapdWorkers, warmup: 108, setup: setupWapd},
}

const (
	// minScans is the fewest scans a loop collects, so at least ten samples
	// lie beyond scan_p90_ms.
	minScans = 100
	// setupReps is how many complete set-ups a run performs; setup_s is
	// their median and the last one is measured.
	setupReps = 3
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-large, warm-edit or wapd-webapps")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "how long each measured loop runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	res, err := execute(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	head, err := json.Marshal(map[string]any{"machine": machine(), "workload": *name, "seed": *seed, "trace": *trace})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", head, line)
	return 0
}

// workdir holds the generated trees and result stores of a run, inside
// the checkout the benchmark runs from.
const workdir = ".bench_build"

// execute sets the workload up setupReps times and measures the last set-up.
func execute(w workload, seed int64, dur time.Duration, trace bool, log io.Writer) (res *result, err error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(work)) }()

	var (
		r      runner
		setups []float64
	)
	for k := 0; k < setupReps; k++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(work, "setup-")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		r, err = w.setup(config{seed: seed, dir: dir, trace: trace})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { err = errors.Join(err, r.close()) }()

	// Warm up on a heap cleared of the set-ups' garbage.
	runtime.GC()
	warm, err := measure(r, loopSpec{clients: w.clients, minScans: w.warmup, errLog: log})
	if err != nil {
		return nil, err
	}

	spec := loopSpec{clients: w.clients, dur: dur, minScans: minScans, first: warm.attempted, errLog: log}
	if trace {
		spec.layers = newLayers()
	}
	ph, err := measure(r, spec)
	if err != nil {
		return nil, err
	}
	if trace {
		if err := r.afterTrace(spec.layers); err != nil {
			return nil, err
		}
		res = perLayer(ph, spec.layers)
	} else {
		res = endToEnd(ph, median(setups))
	}
	// Warm-up scans are checked like the others: they count toward the
	// attempted and failed scans, not toward the metrics.
	res.Attempted += warm.attempted
	res.Failed += warm.failed
	res.Correct = res.Failed == 0
	return res, nil
}

const mib = 1 << 20

func endToEnd(ph *phase, setup float64) *result {
	ok := float64(ph.attempted - ph.failed)
	return &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"scan_p50_ms":       {quantile(ph.lat, 0.5), "ms"},
			"scan_p90_ms":       {quantile(ph.lat, 0.9), "ms"},
			"scans_per_s":       {ratio(ok, ph.busy.Seconds()), "1/s"},
			"alloc_mb_per_scan": {ph.allocBytes / float64(ph.attempted) / mib, "MB"},
			"peak_heap_mb":      {ph.peakLive / mib, "MB"},
			"correct_share":     {ok / float64(ph.attempted), "share"},
			"setup_s":           {setup, "s"},
		},
	}
}

// layerUnits lists the per-layer metrics reported per scan, with units.
var layerUnits = map[string]string{
	"lexer.ms":                  "ms",
	"lexer.tokens":              "count",
	"parser.ms":                 "ms",
	"core.load_ms":              "ms",
	"core.load_parse_wall_ms":   "ms",
	"ir.lower_ms":               "ms",
	"ir.lower_alloc_mb":         "MB",
	"ir.instrs":                 "count",
	"ir.blocks":                 "count",
	"ir.lower_wall_ms":          "ms",
	"core.analyze_ms":           "ms",
	"core.tasks":                "count",
	"core.fused_passes":         "count",
	"core.fused_demoted":        "count",
	"taint.steps":               "count",
	"taint.class_wall_ms":       "ms",
	"taint.candidates":          "count",
	"core.fingerprint_hits":     "count",
	"resultstore.gets":          "count",
	"resultstore.puts":          "count",
	"resultstore.get_ms":        "ms",
	"resultstore.put_ms":        "ms",
	"resultstore.bytes_read":    "bytes",
	"resultstore.bytes_written": "bytes",
	"symptom.extract_ms":        "ms",
	"ml.predict_ms":             "ms",
	"report.render_ms":          "ms",
	"report.bytes":              "bytes",
	"server.queue_ms":           "ms",
	"server.analysis_ms":        "ms",
	"server.other_ms":           "ms",
	"server.request_bytes":      "bytes",
	"server.response_bytes":     "bytes",
	"server.rejected":           "count",
}

func perLayer(ph *phase, l *layers) *result {
	m := make(map[string]metric, len(layerUnits)+12)
	for name, unit := range layerUnits {
		m[name] = metric{l.perScan(name), unit}
	}
	m["core.prefilter_skip_ratio"] = metric{l.share("core.tasks_skipped", "core.tasks_planned"), "share"}
	m["core.reuse_ratio"] = metric{l.share("core.tasks_reused", "core.tasks_needed"), "share"}
	m["taint.summary_hit_ratio"] = metric{l.share("taint.summary_hits", "taint.summary_lookups"), "share"}

	n := float64(ph.gcScans)
	m["gc.cycles_per_scan"] = metric{ph.gc.cycles / n, "count"}
	m["gc.pause_ms_per_scan"] = metric{ph.gc.pauseSec * 1e3 / n, "ms"}
	m["gc.cpu_share"] = metric{ratio(ph.gc.gcCPU, ph.gc.totalCPU), "share"}

	p50, base := quantile(ph.traced, 0.5), quantile(ph.lat, 0.5)
	m["trace.scan_p50_ms"] = metric{p50, "ms"}
	m["trace.untraced_p50_ms"] = metric{base, "ms"}
	m["trace.overhead_share"] = metric{ratio(p50-base, base), "share"}
	m["trace.scans"] = metric{float64(len(ph.traced)), "count"}
	m["trace.replayed_scans"] = metric{float64(l.replays), "count"}

	return &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// machineKey identifies the hardware and toolchain a result was measured
// on; results are only comparable under the same key.
type machineKey struct {
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func machine() machineKey {
	return machineKey{
		CPU:        cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo (Linux), or
// reports "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
