package fleet

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's state machine position.
type BreakerState int32

const (
	// BreakerClosed passes traffic and samples outcomes.
	BreakerClosed BreakerState = iota
	// BreakerOpen sheds every request until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a limited number of probe requests; their
	// outcomes decide between closing and re-opening.
	BreakerHalfOpen
)

// String names the state for the router's /healthz and metric labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return "closed"
}

// BreakerConfig parameterizes the per-replica circuit breaker. Its
// values live in DefaultConfig; New fills any unset field from there.
type BreakerConfig struct {
	// Disabled turns the breaker off entirely: no shedding, no recording.
	Disabled bool
	// Window is the sliding window of recorded forward outcomes.
	Window int
	// MinSamples is the minimum number of outcomes in the window before
	// the failure ratio can trip the breaker (at most Window).
	MinSamples int
	// FailureRatio trips the breaker when failures/window reaches it.
	FailureRatio float64
	// Cooldown is how long the breaker stays open before probing.
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker; any probe failure re-opens it.
	HalfOpenProbes int
}

// Admission is the resolution token Allow returns for an admitted
// request. Every admission must be resolved exactly once: Record feeds a
// replica-health outcome into the state machine, Release frees the slot
// when the forward never produced one (429, hedge-loss cancel, slot-wait
// expiry). The generation stamp lets the breaker discard resolutions from
// requests admitted before its latest state change, so a slow failure from
// the closed era is never mistaken for a probe verdict.
type Admission struct {
	gen   uint64
	probe bool
}

// Probe reports whether this admission consumed a half-open probe slot.
func (a Admission) Probe() bool { return a.probe }

// Breaker is a count-based sliding-window circuit breaker over one
// replica's forward outcomes: when at least MinSamples of the last Window
// outcomes are failures at FailureRatio or above, it opens and the router
// skips the replica instead of sending to a failing backend. After
// Cooldown it admits HalfOpenProbes probes; all succeeding closes it, any
// failing re-opens it. Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig
	// now is the clock (a test hook).
	now func() time.Time
	// onTransition, if non-nil, observes every state change (metric seam).
	// Called with the breaker lock held: keep it non-blocking.
	onTransition func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	gen      uint64 // bumped on every transition; stamps admissions
	window   []bool // ring of outcomes; true = failure
	idx      int    // next ring slot
	samples  int    // occupied ring slots
	fails    int    // failures currently in the ring
	openedAt time.Time
	probes   int // probes admitted in half-open
	probeOKs int // probe successes in half-open
}

// NewBreaker builds a closed breaker. cfg must be complete: New fills it
// from DefaultConfig.
func NewBreaker(cfg BreakerConfig, onTransition func(from, to BreakerState)) *Breaker {
	return &Breaker{
		cfg:          cfg,
		now:          time.Now,
		onTransition: onTransition,
		window:       make([]bool, cfg.Window),
	}
}

// State returns the current state (transitioning open -> half-open if the
// cooldown has elapsed, so /healthz reports what the next request
// would see).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeProbeLocked()
	return b.state
}

// Allow reports whether a request may proceed. When allowed, the
// returned Admission must be resolved exactly once with Record or
// Release; otherwise the duration is how long the caller should tell the
// client to wait (the Retry-After hint).
func (b *Breaker) Allow() (Admission, bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeProbeLocked()
	switch b.state {
	case BreakerClosed:
		return Admission{gen: b.gen}, true, 0
	case BreakerHalfOpen:
		if b.probes < b.cfg.HalfOpenProbes {
			b.probes++
			return Admission{gen: b.gen, probe: true}, true, 0
		}
		// Probe quota in flight; shed briefly while they resolve.
		return Admission{}, false, b.cfg.Cooldown
	default: // BreakerOpen
		wait := b.cfg.Cooldown - b.now().Sub(b.openedAt)
		if wait < 0 {
			wait = 0
		}
		return Admission{}, false, wait
	}
}

// Record resolves an admission with one forward outcome. Resolutions
// from admissions older than the latest state transition are discarded:
// a slow failure from the closed era must not re-open a half-open
// breaker, and a stale success must not close it before a real probe
// has run.
func (b *Breaker) Record(adm Admission, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if adm.gen != b.gen {
		return
	}
	switch b.state {
	case BreakerHalfOpen:
		// The generation matched, so this is one of this round's probes.
		if !ok {
			b.openLocked()
			return
		}
		b.probeOKs++
		if b.probeOKs >= b.cfg.HalfOpenProbes {
			b.transitionLocked(BreakerClosed)
			b.resetWindowLocked()
		}
	case BreakerClosed:
		if b.window[b.idx] {
			b.fails--
		}
		b.window[b.idx] = !ok
		if !ok {
			b.fails++
		}
		b.idx = (b.idx + 1) % len(b.window)
		if b.samples < len(b.window) {
			b.samples++
		}
		if b.samples >= b.cfg.MinSamples &&
			float64(b.fails) >= b.cfg.FailureRatio*float64(b.samples) {
			b.openLocked()
		}
	default: // BreakerOpen issues no admissions, so a matching generation
		// is impossible here; nothing to do.
	}
}

// Release resolves an admission without a replica-health signal, freeing
// its half-open probe slot. Without it a probe forward that ends without
// a verdict (429, hedge-loss cancel, slot-wait expiry) would leak its
// slot permanently and wedge the breaker in half-open, shedding forever.
func (b *Breaker) Release(adm Admission) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !adm.probe || adm.gen != b.gen || b.state != BreakerHalfOpen {
		return
	}
	if b.probes > 0 {
		b.probes--
	}
}

// maybeProbeLocked moves open -> half-open once the cooldown elapses.
func (b *Breaker) maybeProbeLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transitionLocked(BreakerHalfOpen)
		b.probes, b.probeOKs = 0, 0
	}
}

func (b *Breaker) openLocked() {
	b.openedAt = b.now()
	b.transitionLocked(BreakerOpen)
	b.resetWindowLocked()
}

func (b *Breaker) resetWindowLocked() {
	for i := range b.window {
		b.window[i] = false
	}
	b.idx, b.samples, b.fails = 0, 0, 0
}

func (b *Breaker) transitionLocked(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	b.gen++
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}
