package resultstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Envelope wraps a remote Backend in the full fault budget, so a tier that
// is slow, flaky or down costs a scan a bounded, small amount of time and
// nothing else:
//
//   - per-op deadlines: every Get/Put/Delete/List runs under OpTimeout, so
//     a stalled tier surfaces as a fast error, not a hung scan;
//   - jittered-backoff retries with a bounded budget: transient errors are
//     retried up to RetryMax times per op, each retry spending one token
//     from a shared budget that refills on success — a tier that flakes on
//     every op exhausts the budget and degrades to single attempts instead
//     of multiplying its own latency;
//   - a backend-scoped circuit breaker (the same closed/open/half-open
//     machinery as the engine's per-class breakers): after BreakerThreshold
//     consecutive terminal failures the breaker opens and every op is
//     refused immediately with ErrDegraded; after BreakerCooldown one probe
//     op is admitted, and its outcome closes or re-opens the breaker. A
//     dead tier therefore costs one probe per cooldown, not one timeout
//     per task.
//
// ErrNotFound is a definitive answer, never a fault: it does not consume
// retries and does not count against the breaker.
type Envelope struct {
	inner Backend
	cfg   EnvelopeConfig

	mu       sync.Mutex
	state    BreakerState
	faults   int
	openedAt time.Time
	probing  bool
	budget   int

	ops      int64
	failures int64
	retries  int64
	refused  int64
	lastErr  string
	lastAt   time.Time

	// test seams
	now   func() time.Time
	sleep func(time.Duration)
	rng   *rand.Rand
}

// BreakerState is the envelope breaker's position, mirroring the engine's
// per-class breaker states.
type BreakerState string

// Breaker states.
const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// EnvelopeConfig tunes the fault budget. Zero values apply the defaults.
type EnvelopeConfig struct {
	// OpTimeout bounds each attempt of each operation. Default 2s.
	OpTimeout time.Duration
	// RetryMax is how many times a failed op is retried (beyond the first
	// attempt). Default 2; negative disables retries.
	RetryMax int
	// RetryBackoff is the base backoff before the first retry; later
	// retries double it, and every wait is jittered ±50%. Default 50ms.
	RetryBackoff time.Duration
	// RetryBudget bounds retries across all ops: each retry spends one
	// token, each success refills one (up to the budget), so a persistently
	// flaky tier degrades to single attempts. Default 64; negative means
	// unbounded.
	RetryBudget int
	// BreakerThreshold is how many consecutive terminal failures open the
	// breaker. Default 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting a
	// half-open probe. Default 10s.
	BreakerCooldown time.Duration
}

// Envelope defaults.
const (
	DefaultOpTimeout        = 2 * time.Second
	DefaultRetryMax         = 2
	DefaultRetryBackoff     = 50 * time.Millisecond
	DefaultRetryBudget      = 64
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 10 * time.Second
)

// EnvelopeState is the envelope's observability account, surfaced in
// Report.Stats and /healthz.
type EnvelopeState struct {
	Breaker BreakerState `json:"breaker"`
	// Faults is the consecutive terminal-failure count driving the breaker.
	Faults int `json:"faults,omitempty"`
	// RetryAt is when an open breaker admits its half-open probe.
	RetryAt time.Time `json:"retry_at,omitempty"`
	// Ops counts operations attempted; Failures terminal failures; Retries
	// retry attempts spent; Refused ops answered ErrDegraded by an open
	// breaker without touching the tier.
	Ops      int64 `json:"ops,omitempty"`
	Failures int64 `json:"failures,omitempty"`
	Retries  int64 `json:"retries,omitempty"`
	Refused  int64 `json:"refused,omitempty"`
	// LastError is the most recent terminal failure, with its time.
	LastError   string    `json:"last_error,omitempty"`
	LastErrorAt time.Time `json:"last_error_at,omitempty"`
}

// NewEnvelope wraps b with the fault budget.
func NewEnvelope(b Backend, cfg EnvelopeConfig) *Envelope {
	if cfg.OpTimeout == 0 {
		cfg.OpTimeout = DefaultOpTimeout
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	return &Envelope{
		inner: b,
		cfg:   cfg,
		state: BreakerClosed,
		budget: func() int {
			if cfg.RetryBudget < 0 {
				return 0
			}
			return cfg.RetryBudget
		}(),
		now:   time.Now,
		sleep: time.Sleep,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// EnvelopeState snapshots the account.
func (e *Envelope) EnvelopeState() EnvelopeState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EnvelopeState{
		Breaker:     e.state,
		Faults:      e.faults,
		Ops:         e.ops,
		Failures:    e.failures,
		Retries:     e.retries,
		Refused:     e.refused,
		LastError:   e.lastErr,
		LastErrorAt: e.lastAt,
	}
	if e.state == BreakerOpen {
		st.RetryAt = e.openedAt.Add(e.cfg.BreakerCooldown)
	}
	return st
}

// allow reports whether an op may run now; probe marks the half-open probe,
// whose disposition must be handed back via recordSuccess/recordFailure.
func (e *Envelope) allow() (ok, probe bool) {
	if e.cfg.BreakerThreshold < 0 {
		return true, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case BreakerOpen:
		if e.now().Sub(e.openedAt) < e.cfg.BreakerCooldown {
			e.refused++
			return false, false
		}
		e.state = BreakerHalfOpen
		e.probing = true
		return true, true
	case BreakerHalfOpen:
		if e.probing {
			e.refused++
			return false, false
		}
		e.probing = true
		return true, true
	default:
		return true, false
	}
}

func (e *Envelope) recordSuccess(probe bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.faults = 0
	e.state = BreakerClosed
	e.probing = false
	if e.cfg.RetryBudget > 0 && e.budget < e.cfg.RetryBudget {
		e.budget++
	}
}

func (e *Envelope) recordFailure(probe bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.failures++
	e.lastErr = err.Error()
	e.lastAt = e.now()
	if e.cfg.BreakerThreshold < 0 {
		return
	}
	if probe || e.state == BreakerHalfOpen {
		e.state = BreakerOpen
		e.openedAt = e.now()
		e.probing = false
		return
	}
	if e.state == BreakerOpen {
		return
	}
	e.faults++
	if e.faults >= e.cfg.BreakerThreshold {
		e.state = BreakerOpen
		e.openedAt = e.now()
	}
}

// spendRetry takes one retry token; false means the budget is dry and the
// op must settle for the attempts it already made.
func (e *Envelope) spendRetry() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.RetryBudget < 0 { // unbounded
		e.retries++
		return true
	}
	if e.budget == 0 {
		return false
	}
	e.budget--
	e.retries++
	return true
}

// backoff returns the jittered wait before retry attempt i (0-based).
func (e *Envelope) backoff(i int) time.Duration {
	d := e.cfg.RetryBackoff << uint(i)
	e.mu.Lock()
	jitter := 0.5 + e.rng.Float64() // ×[0.5, 1.5)
	e.mu.Unlock()
	return time.Duration(float64(d) * jitter)
}

// run executes op under the breaker, per-attempt deadline and retry policy.
func (e *Envelope) run(ctx context.Context, name string, op func(context.Context) error) error {
	ok, probe := e.allow()
	if !ok {
		return fmt.Errorf("%w (%s)", ErrDegraded, name)
	}
	e.mu.Lock()
	e.ops++
	e.mu.Unlock()
	var err error
	for attempt := 0; ; attempt++ {
		actx, cancel := context.WithTimeout(ctx, e.cfg.OpTimeout)
		err = op(actx)
		cancel()
		if err == nil || errors.Is(err, ErrNotFound) {
			// A definitive answer: the tier is healthy even when the blob
			// is absent.
			e.recordSuccess(probe)
			return err
		}
		if ctx.Err() != nil {
			// The caller gave up (scan cancelled, drain): not the tier's
			// fault, and retrying on its behalf would outlive the caller.
			e.recordFailure(probe, err)
			return err
		}
		if attempt >= e.cfg.RetryMax || e.cfg.RetryMax < 0 || !e.spendRetry() {
			e.recordFailure(probe, err)
			return err
		}
		e.sleep(e.backoff(attempt))
	}
}

func (e *Envelope) Get(ctx context.Context, key string) ([]byte, error) {
	var out []byte
	err := e.run(ctx, "get "+key, func(ctx context.Context) error {
		var err error
		out, err = e.inner.Get(ctx, key)
		return err
	})
	return out, err
}

func (e *Envelope) Put(ctx context.Context, key string, data []byte) error {
	return e.run(ctx, "put "+key, func(ctx context.Context) error {
		return e.inner.Put(ctx, key, data)
	})
}

func (e *Envelope) Delete(ctx context.Context, key string) error {
	return e.run(ctx, "delete "+key, func(ctx context.Context) error {
		return e.inner.Delete(ctx, key)
	})
}

func (e *Envelope) List(ctx context.Context) ([]BlobInfo, error) {
	var out []BlobInfo
	err := e.run(ctx, "list", func(ctx context.Context) error {
		var err error
		out, err = e.inner.List(ctx)
		return err
	})
	return out, err
}
