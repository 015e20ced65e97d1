package fleet

import (
	"sync/atomic"
	"time"

	"insightalign/internal/serve"
)

// Replica is the router's view of one backend: its base URL, a bounded
// serve.Gate (MaxInflight concurrent forwards plus QueueDepth waiters),
// liveness from /healthz polling, and a Breaker fed by observed forward
// outcomes. Health and breaker answer different questions — "is the
// process up" vs "is it currently failing requests" — and the router
// consults both before sending.
type Replica struct {
	id string // base URL, e.g. "http://127.0.0.1:8081"

	brk *Breaker

	// gate admits forwards; a full one is the router's 503 + Retry-After.
	gate *serve.Gate

	healthy   atomic.Bool
	failPolls atomic.Int64 // consecutive failed health polls
}

func newReplica(id string, maxInflight, queueDepth int, brkCfg BreakerConfig, onTransition func(from, to BreakerState)) *Replica {
	r := &Replica{id: id, gate: serve.NewGate(maxInflight, queueDepth)}
	if !brkCfg.Disabled {
		r.brk = NewBreaker(brkCfg, onTransition)
	}
	// Optimistic start: the first health poll corrects a dead replica
	// within one interval, and a cold fleet must not shed its first
	// requests while polling warms up.
	r.healthy.Store(true)
	return r
}

// ID returns the replica's base URL.
func (r *Replica) ID() string { return r.id }

// Healthy reports the last /healthz poll verdict.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// Inflight reports the current number of in-flight forwards.
func (r *Replica) Inflight() int64 { return r.gate.Inflight() }

// BreakerState reports the replica breaker's position (closed when the
// breaker is disabled).
func (r *Replica) BreakerState() BreakerState {
	if r.brk == nil {
		return BreakerClosed
	}
	return r.brk.State()
}

// allow asks the replica's breaker for an admission (always granted when
// the breaker is disabled).
func (r *Replica) allow() (Admission, bool, time.Duration) {
	if r.brk == nil {
		return Admission{}, true, 0
	}
	return r.brk.Allow()
}

// record resolves a breaker admission with a health outcome.
func (r *Replica) record(adm Admission, ok bool) {
	if r.brk != nil {
		r.brk.Record(adm, ok)
	}
}

// releaseAdmission resolves a breaker admission without a health signal
// (429s, hedge-loss cancels, slot-wait expiries).
func (r *Replica) releaseAdmission(adm Admission) {
	if r.brk != nil {
		r.brk.Release(adm)
	}
}
