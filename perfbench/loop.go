package main

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// A runner is one set-up workload: it hands out scans in index order.
type runner interface {
	// prepare readies scan i's input. It runs outside the timed region and
	// may fail only on a benchmark fault (a full disk), which aborts the run.
	prepare(i int) (scan, error)
	// afterTrace records, once a traced loop has finished, the per-layer
	// account that needs a quiet process: the replays of inner layers.
	afterTrace(l *layers) error
	close() error
}

// A scan is one workload op.
type scan interface {
	// run is the timed part. traced turns on the per-call timings the
	// traced run records; the scan's work is the same either way.
	run(traced bool) error
	// check compares the scan's output with the ground truth.
	check() error
	// observe records the scan's per-layer account into l; it runs after a
	// passing check, only in the traced phase, outside the timed region.
	observe(l *layers) error
}

// phase is one measured closed loop.
type phase struct {
	lat       []time.Duration // every attempted untraced scan
	traced    []time.Duration // every attempted traced scan
	attempted int
	failed    int
	// busy is the loop's wall time minus the clients' mean time spent
	// outside the timed region (input preparation, checks, observation).
	busy time.Duration
	// allocBytes sums heap allocation inside the timed region (one client)
	// or over the whole loop (several clients).
	allocBytes float64
	peakLive   float64
	// gc is the runtime account of the traced scans, summed over their
	// timed regions (one client), or of the whole loop (several clients);
	// gcScans is the number of scans it covers.
	gc      rtSample
	gcScans int
}

// rtSample is a reading of the runtime counters the benchmark reports.
type rtSample struct {
	allocs, cycles, pauseSec, gcCPU, totalCPU float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{
		allocs:   value(s[0]),
		cycles:   value(s[1]),
		pauseSec: value(s[2]),
		gcCPU:    value(s[3]),
		totalCPU: value(s[4]),
	}
}

// value reads a scalar sample, or approximates a histogram's sum from its
// bucket midpoints (the pause histogram's buckets are narrow).
func value(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindFloat64Histogram:
		h := s.Value.Float64Histogram()
		sum := 0.0
		for i, n := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			switch {
			case math.IsInf(lo, -1):
			case math.IsInf(hi, 1):
				sum += float64(n) * lo
			default:
				sum += float64(n) * (lo + hi) / 2
			}
		}
		return sum
	}
	return 0
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocs - b.allocs, a.cycles - b.cycles, a.pauseSec - b.pauseSec, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocs + b.allocs, a.cycles + b.cycles, a.pauseSec + b.pauseSec, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU}
}

// heapSampler polls the live heap (as of the last GC) until stopped.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, value(s[0]))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the highest live heap seen.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// loopSpec sizes one measured loop.
type loopSpec struct {
	clients  int
	dur      time.Duration
	minScans int
	// first is the index of the loop's first scan, so a later loop in the
	// same process never repeats an earlier one's inputs.
	first int
	// layers, when set, makes one scan of each consecutive pair traced and
	// the other untraced, so both sample sets see the same conditions.
	layers *layers
	// errLog receives the first few scan failures.
	errLog io.Writer
}

// maxLoggedErrors caps the scan failures a loop prints.
const maxLoggedErrors = 5

// measure runs a closed loop: each client claims the next scan index and
// runs it, until the duration has passed and at least minScans scans of
// each kind were claimed. A prepare error aborts the loop.
func measure(r runner, spec loopSpec) (*phase, error) {
	var (
		mu      sync.Mutex
		ph      = &phase{}
		idle    time.Duration
		fatal   error
		logged  int
		next    atomic.Int64
		wg      sync.WaitGroup
		serial  = spec.clients == 1
		kinds   = 1
		aborted atomic.Bool
	)
	if spec.layers != nil {
		kinds = 2
	}
	next.Store(int64(spec.first))
	heap := startHeapSampler()
	rt0 := readRuntime()
	start := time.Now()
	for c := 0; c < spec.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted.Load() {
				i := int(next.Add(1) - 1)
				if i-spec.first >= kinds*spec.minScans && time.Since(start) >= spec.dur {
					return
				}
				t0 := time.Now()
				s, err := r.prepare(i)
				if err != nil {
					mu.Lock()
					fatal = fmt.Errorf("prepare scan %d: %w", i, err)
					mu.Unlock()
					aborted.Store(true)
					return
				}
				prep := time.Since(t0)
				traced := spec.layers != nil && tracedScan(i-spec.first)
				rtBefore := readRuntime()
				t1 := time.Now()
				err = s.run(traced)
				lat := time.Since(t1)
				rtScan := readRuntime().sub(rtBefore)
				t2 := time.Now()
				if err == nil {
					err = s.check()
				}
				if err == nil && traced {
					err = s.observe(spec.layers)
				}
				post := time.Since(t2)

				mu.Lock()
				ph.attempted++
				idle += prep + post
				if serial {
					ph.allocBytes += rtScan.allocs
				}
				if traced {
					ph.traced = append(ph.traced, lat)
					if serial {
						ph.gc = ph.gc.add(rtScan)
					}
				} else {
					ph.lat = append(ph.lat, lat)
				}
				if err != nil {
					ph.failed++
					if logged < maxLoggedErrors && spec.errLog != nil {
						logged++
						fmt.Fprintf(spec.errLog, "perfbench: scan %d failed: %v\n", i, err)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	rtLoop := readRuntime().sub(rt0)
	ph.peakLive = heap.finish()
	if fatal != nil {
		return nil, fatal
	}
	ph.busy = wall - idle/time.Duration(spec.clients)
	ph.gcScans = len(ph.traced)
	if !serial {
		ph.allocBytes = rtLoop.allocs
		ph.gc, ph.gcScans = rtLoop, ph.attempted
	}
	return ph, nil
}

// tracedScan picks which scan of the pair (2k, 2k+1) is traced by a
// pseudo-random bit of k, so a workload that cycles through an even number
// of inputs traces each input about half the time.
func tracedScan(i int) bool {
	k := uint64(i/2) * 0x9e3779b97f4a7c15
	return i%2 == int(k>>63)
}

// quantile returns the q-quantile (nearest rank) of the latencies in ms.
func quantile(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(q*float64(len(s))+0.5) - 1
	k = min(max(k, 0), len(s)-1)
	return ms(s[k])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a counter the workload never touches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers accumulates the per-layer account of a traced run in two
// families: values observed on traced scans, reported per traced scan, and
// values from replaying a scan's inner layers, reported per replayed scan.
type layers struct {
	mu      sync.Mutex
	scan    map[string]float64
	replay  map[string]float64
	scans   int
	replays int
}

func newLayers() *layers {
	return &layers{scan: make(map[string]float64), replay: make(map[string]float64)}
}

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.scan[name] += v
	l.mu.Unlock()
}

func (l *layers) addMS(name string, d time.Duration) { l.add(name, ms(d)) }

func (l *layers) addReplay(name string, v float64) {
	l.mu.Lock()
	l.replay[name] += v
	l.mu.Unlock()
}

func (l *layers) addReplayMS(name string, d time.Duration) { l.addReplay(name, ms(d)) }

func (l *layers) scanDone() {
	l.mu.Lock()
	l.scans++
	l.mu.Unlock()
}

func (l *layers) replayDone() {
	l.mu.Lock()
	l.replays++
	l.mu.Unlock()
}

// perScan is name's value per traced scan plus per replayed scan (a name
// is recorded in one family only).
func (l *layers) perScan(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ratio(l.scan[name], float64(l.scans)) + ratio(l.replay[name], float64(l.replays))
}

// share is num/den over the traced scans' sums.
func (l *layers) share(num, den string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ratio(l.scan[num], l.scan[den])
}
