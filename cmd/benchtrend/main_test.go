package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro
BenchmarkAnalyzeApp-8                    	     142	   8441385 ns/op	  203144 B/op	    3021 allocs/op
BenchmarkAnalyzeAppIncrementalCold-8     	       9	 125000298 ns/op
BenchmarkAnalyzeAppIncremental-8         	     163	   7250100 ns/op
PASS
ok  	repro	3.843s
`

func TestParseBenchEchoesAndExtracts(t *testing.T) {
	var echo bytes.Buffer
	got, err := parseBench(strings.NewReader(benchOutput), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if echo.String() != benchOutput {
		t.Errorf("echo mangled the stream:\n%s", echo.String())
	}
	want := map[string]float64{
		"BenchmarkAnalyzeApp":                8441385,
		"BenchmarkAnalyzeAppIncrementalCold": 125000298,
		"BenchmarkAnalyzeAppIncremental":     7250100,
	}
	if len(got.ns) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got.ns), len(want), got.ns)
	}
	for name, ns := range want {
		if got.ns[name] != ns {
			t.Errorf("%s = %v, want %v", name, got.ns[name], ns)
		}
	}
	// Memory dimensions: only BenchmarkAnalyzeApp reported them.
	if got.bytes["BenchmarkAnalyzeApp"] != 203144 {
		t.Errorf("B/op = %v, want 203144", got.bytes["BenchmarkAnalyzeApp"])
	}
	if got.allocs["BenchmarkAnalyzeApp"] != 3021 {
		t.Errorf("allocs/op = %v, want 3021", got.allocs["BenchmarkAnalyzeApp"])
	}
	if len(got.bytes) != 1 || len(got.allocs) != 1 {
		t.Errorf("memory dimensions parsed for %d/%d benchmarks, want 1/1", len(got.bytes), len(got.allocs))
	}
}

// TestParseBenchCustomMetrics pins the column extraction against lines where
// MB/s or custom b.ReportMetric units sit between ns/op and the -benchmem
// columns.
func TestParseBenchCustomMetrics(t *testing.T) {
	const out = `BenchmarkLargeAppThroughput-8   5   200000 ns/op   55.2 MB/s   12000 lines   8832 B/op   77 allocs/op
`
	got, err := parseBench(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got.ns["BenchmarkLargeAppThroughput"] != 200000 {
		t.Errorf("ns/op = %v, want 200000", got.ns["BenchmarkLargeAppThroughput"])
	}
	if got.bytes["BenchmarkLargeAppThroughput"] != 8832 {
		t.Errorf("B/op = %v, want 8832", got.bytes["BenchmarkLargeAppThroughput"])
	}
	if got.allocs["BenchmarkLargeAppThroughput"] != 77 {
		t.Errorf("allocs/op = %v, want 77", got.allocs["BenchmarkLargeAppThroughput"])
	}
}

// TestParseBenchKeepsMinimumAcrossCount pins the -count=N behavior: each
// benchmark's minimum repetition is recorded, in every dimension, so the
// trajectory gates on the least scheduler-disturbed measurement.
func TestParseBenchKeepsMinimumAcrossCount(t *testing.T) {
	const out = `BenchmarkAnalyzeApp-8   100   9000000 ns/op   210000 B/op   3100 allocs/op
BenchmarkAnalyzeApp-8   100   8441385 ns/op   203144 B/op   3021 allocs/op
BenchmarkAnalyzeApp-8   100   9800000 ns/op   205000 B/op   3050 allocs/op
`
	got, err := parseBench(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got.ns["BenchmarkAnalyzeApp"] != 8441385 {
		t.Errorf("ns/op = %v, want the minimum 8441385", got.ns["BenchmarkAnalyzeApp"])
	}
	if got.bytes["BenchmarkAnalyzeApp"] != 203144 {
		t.Errorf("B/op = %v, want the minimum 203144", got.bytes["BenchmarkAnalyzeApp"])
	}
	if got.allocs["BenchmarkAnalyzeApp"] != 3021 {
		t.Errorf("allocs/op = %v, want the minimum 3021", got.allocs["BenchmarkAnalyzeApp"])
	}
}

// TestCompareFlagsAllocRegression proves the memory dimensions gate: a run
// whose allocs/op grew >threshold fails -compare even when ns/op improved.
func TestCompareFlagsAllocRegression(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trend.json")
	now := func() time.Time { return time.Unix(0, 0) }
	appendRun := func(out string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-file", file}, strings.NewReader(out), &stdout, &stderr, now); code != 0 {
			t.Fatalf("append exited %d: %s", code, stderr.String())
		}
	}
	appendRun(benchOutput)
	worse := strings.Replace(benchOutput, "8441385 ns/op	  203144 B/op	    3021 allocs/op",
		"8000000 ns/op	  203144 B/op	    9021 allocs/op", 1)
	appendRun(worse)
	var stdout bytes.Buffer
	code := run([]string{"-file", file, "-compare"}, strings.NewReader(""), &stdout, os.Stderr, now)
	if code != 1 {
		t.Fatalf("compare of an alloc regression exited %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "allocs/op") || !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("compare output missing alloc regression marker:\n%s", stdout.String())
	}
}

func TestAppendAndCompare(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trend.json")
	now := func() time.Time { return time.Unix(0, 0) }

	runAppend := func(out string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-file", file}, strings.NewReader(out), &stdout, &stderr, now); code != 0 {
			t.Fatalf("append exited %d: %s", code, stderr.String())
		}
	}
	runAppend(benchOutput)
	// Trajectory appends; a second run must not overwrite the first entry.
	faster := strings.Replace(benchOutput, "7250100 ns/op", "7000000 ns/op", 1)
	runAppend(faster)

	entries, err := readTrajectory(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("trajectory has %d entries, want 2", len(entries))
	}

	var stdout bytes.Buffer
	code := run([]string{"-file", file, "-compare"}, strings.NewReader(""), &stdout, os.Stderr, now)
	if code != 0 {
		t.Fatalf("compare of an improvement exited %d:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "incremental speedup") {
		t.Errorf("compare output missing speedup line:\n%s", stdout.String())
	}

	// A >10%% slowdown must be flagged and fail the command.
	slower := strings.Replace(benchOutput, "8441385 ns/op", "18441385 ns/op", 1)
	runAppend(slower)
	stdout.Reset()
	code = run([]string{"-file", file, "-compare"}, strings.NewReader(""), &stdout, os.Stderr, now)
	if code != 1 {
		t.Fatalf("compare of a regression exited %d, want 1:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "REGRESSION") {
		t.Errorf("compare output missing REGRESSION marker:\n%s", stdout.String())
	}
}

func TestReadTrajectorySkipsForeignLines(t *testing.T) {
	file := filepath.Join(t.TempDir(), "trend.json")
	legacy := `{"Time":"2026-08-05T04:06:22Z","Action":"start","Package":"repro"}
not json at all
{"date":"2026-08-05T00:00:00Z","go":"go1.24.0","benchmarks":{"BenchmarkAnalyzeApp":8441385}}
`
	if err := os.WriteFile(file, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := readTrajectory(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("trajectory has %d entries, want 1 (legacy lines skipped)", len(entries))
	}
	if entries[0].Benchmarks["BenchmarkAnalyzeApp"] != 8441385 {
		t.Errorf("surviving entry mangled: %+v", entries[0])
	}
}
