package core

import (
	"sync"
	"time"

	"repro/internal/vuln"
)

// BreakerState is one per-class circuit breaker's position.
type BreakerState string

// Circuit breaker states. The machine is the classic three-state breaker:
// closed (tasks run normally) → open (tasks are skipped with a
// breaker-open diagnostic) after BreakerThreshold consecutive terminal
// faults → half-open (one probe task admitted) after the cool-down; the
// probe's outcome closes or re-opens the breaker.
const (
	BreakerClosed   BreakerState = "closed"
	BreakerOpen     BreakerState = "open"
	BreakerHalfOpen BreakerState = "half-open"
)

// DefaultBreakerCooldown is how long an open breaker waits before admitting
// a half-open probe when Options.BreakerCooldown is zero.
const DefaultBreakerCooldown = 30 * time.Second

// BreakerStatus is a point-in-time snapshot of one class's breaker, exposed
// for health endpoints.
type BreakerStatus struct {
	State BreakerState `json:"state"`
	// Faults is the consecutive terminal-fault count driving the breaker.
	Faults int `json:"faults"`
	// RetryAt is when an open breaker admits its half-open probe.
	RetryAt time.Time `json:"retry_at,omitempty"`
}

// classBreakers tracks one breaker per vulnerability class. The state is
// engine-scoped, not scan-scoped: a class that faults repeatedly across
// jobs trips open so one pathological weapon cannot keep consuming the
// worker pool, and recovers via a half-open probe after the cool-down.
// Breakers only ever skip tasks (diagnostics-only degradation); findings
// for every other class are unaffected. A nil *classBreakers (breakers
// disabled) admits every task and ignores every outcome.
type classBreakers struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests
	byClass   map[vuln.ClassID]*breakerEntry
}

type breakerEntry struct {
	state    BreakerState
	faults   int
	openedAt time.Time
	probing  bool // a half-open probe task is in flight
}

func newClassBreakers(threshold int, cooldown time.Duration) *classBreakers {
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &classBreakers{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		byClass:   make(map[vuln.ClassID]*breakerEntry),
	}
}

func (b *classBreakers) entry(id vuln.ClassID) *breakerEntry {
	en := b.byClass[id]
	if en == nil {
		en = &breakerEntry{state: BreakerClosed}
		b.byClass[id] = en
	}
	return en
}

// allow reports whether a task of the class may run now. probe is true when
// the task runs as the half-open probe; callers must hand the task's
// disposition back via recordSuccess, recordFault or releaseProbe so the
// probe slot is never leaked.
func (b *classBreakers) allow(id vuln.ClassID) (ok, probe bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	en := b.entry(id)
	switch en.state {
	case BreakerOpen:
		if b.now().Sub(en.openedAt) < b.cooldown {
			return false, false
		}
		en.state = BreakerHalfOpen
		en.probing = true
		return true, true
	case BreakerHalfOpen:
		if en.probing {
			return false, false
		}
		en.probing = true
		return true, true
	default:
		return true, false
	}
}

// recordSuccess notes a cleanly completed task: the consecutive-fault count
// resets and a successful probe closes the breaker.
func (b *classBreakers) recordSuccess(id vuln.ClassID, probe bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	en := b.entry(id)
	en.faults = 0
	en.state = BreakerClosed
	en.probing = false
}

// recordFault notes a terminal task fault (the retry ladder, if any, is
// already exhausted). A failed probe re-opens immediately; otherwise the
// breaker opens once the consecutive-fault count reaches the threshold.
func (b *classBreakers) recordFault(id vuln.ClassID, probe bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	en := b.entry(id)
	if probe || en.state == BreakerHalfOpen {
		en.state = BreakerOpen
		en.openedAt = b.now()
		en.probing = false
		return
	}
	if en.state == BreakerOpen {
		return
	}
	en.faults++
	if en.faults >= b.threshold {
		en.state = BreakerOpen
		en.openedAt = b.now()
	}
}

// releaseProbe returns an unused probe slot when the probe task was
// abandoned by scan cancellation (neither a success nor a class fault), so
// the next task can probe instead of waiting out another cool-down.
func (b *classBreakers) releaseProbe(id vuln.ClassID, probe bool) {
	if b == nil || !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.entry(id).probing = false
}

// snapshot copies every breaker's current status.
func (b *classBreakers) snapshot() map[vuln.ClassID]BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[vuln.ClassID]BreakerStatus, len(b.byClass))
	for id, en := range b.byClass {
		st := BreakerStatus{State: en.state, Faults: en.faults}
		if en.state == BreakerOpen {
			st.RetryAt = en.openedAt.Add(b.cooldown)
		}
		out[id] = st
	}
	return out
}
