package main

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/resultstore"
)

// storeCounters is the result store's I/O account as seen at the Backend
// seam.
type storeCounters struct {
	gets, puts              atomic.Int64
	getNS, putNS            atomic.Int64
	bytesRead, bytesWritten atomic.Int64
}

// timedBackend counts and times Get and Put, and forwards everything else.
type timedBackend struct {
	inner resultstore.Backend
	c     *storeCounters
}

func (t *timedBackend) Get(ctx context.Context, key string) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.Get(ctx, key)
	t.c.getNS.Add(int64(time.Since(start)))
	t.c.gets.Add(1)
	t.c.bytesRead.Add(int64(len(data)))
	return data, err
}

func (t *timedBackend) Put(ctx context.Context, key string, data []byte) error {
	start := time.Now()
	err := t.inner.Put(ctx, key, data)
	t.c.putNS.Add(int64(time.Since(start)))
	t.c.puts.Add(1)
	t.c.bytesWritten.Add(int64(len(data)))
	return err
}

func (t *timedBackend) Delete(ctx context.Context, key string) error {
	return t.inner.Delete(ctx, key)
}

func (t *timedBackend) List(ctx context.Context) ([]resultstore.BlobInfo, error) {
	return t.inner.List(ctx)
}

// wrapBackend returns b behind a timing wrapper. The store discovers the
// optional capabilities (Statter, Toucher, Quarantiner, StateReporter) by
// type assertion, so the wrapper has exactly the ones b has: one composite
// type per combination.
func wrapBackend(b resultstore.Backend) (resultstore.Backend, *storeCounters) {
	t := &timedBackend{inner: b, c: &storeCounters{}}
	st, hasSt := b.(resultstore.Statter)
	to, hasTo := b.(resultstore.Toucher)
	q, hasQ := b.(resultstore.Quarantiner)
	sr, hasSR := b.(resultstore.StateReporter)
	type (
		S  = resultstore.Statter
		T  = resultstore.Toucher
		Q  = resultstore.Quarantiner
		SR = resultstore.StateReporter
	)
	var w resultstore.Backend
	switch [4]bool{hasSt, hasTo, hasQ, hasSR} {
	case [4]bool{false, false, false, false}:
		w = t
	case [4]bool{true, false, false, false}:
		w = struct {
			*timedBackend
			S
		}{t, st}
	case [4]bool{false, true, false, false}:
		w = struct {
			*timedBackend
			T
		}{t, to}
	case [4]bool{false, false, true, false}:
		w = struct {
			*timedBackend
			Q
		}{t, q}
	case [4]bool{false, false, false, true}:
		w = struct {
			*timedBackend
			SR
		}{t, sr}
	case [4]bool{true, true, false, false}:
		w = struct {
			*timedBackend
			S
			T
		}{t, st, to}
	case [4]bool{true, false, true, false}:
		w = struct {
			*timedBackend
			S
			Q
		}{t, st, q}
	case [4]bool{true, false, false, true}:
		w = struct {
			*timedBackend
			S
			SR
		}{t, st, sr}
	case [4]bool{false, true, true, false}:
		w = struct {
			*timedBackend
			T
			Q
		}{t, to, q}
	case [4]bool{false, true, false, true}:
		w = struct {
			*timedBackend
			T
			SR
		}{t, to, sr}
	case [4]bool{false, false, true, true}:
		w = struct {
			*timedBackend
			Q
			SR
		}{t, q, sr}
	case [4]bool{true, true, true, false}:
		w = struct {
			*timedBackend
			S
			T
			Q
		}{t, st, to, q}
	case [4]bool{true, true, false, true}:
		w = struct {
			*timedBackend
			S
			T
			SR
		}{t, st, to, sr}
	case [4]bool{true, false, true, true}:
		w = struct {
			*timedBackend
			S
			Q
			SR
		}{t, st, q, sr}
	case [4]bool{false, true, true, true}:
		w = struct {
			*timedBackend
			T
			Q
			SR
		}{t, to, q, sr}
	default:
		w = struct {
			*timedBackend
			S
			T
			Q
			SR
		}{t, st, to, q, sr}
	}
	return w, t.c
}

// reset zeroes the counters, so the next observe covers one scan.
func (c *storeCounters) reset() {
	for _, v := range []*atomic.Int64{&c.gets, &c.puts, &c.getNS, &c.putNS, &c.bytesRead, &c.bytesWritten} {
		v.Store(0)
	}
}

// observe records the counters' account into l.
func (c *storeCounters) observe(l *layers) {
	l.add("resultstore.gets", float64(c.gets.Load()))
	l.add("resultstore.puts", float64(c.puts.Load()))
	l.add("resultstore.get_ms", float64(c.getNS.Load())/1e6)
	l.add("resultstore.put_ms", float64(c.putNS.Load())/1e6)
	l.add("resultstore.bytes_read", float64(c.bytesRead.Load()))
	l.add("resultstore.bytes_written", float64(c.bytesWritten.Load()))
}
