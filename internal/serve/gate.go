package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Admission errors, mapped to HTTP codes by the handlers.
var (
	// ErrQueueFull rejects a request because every slot is taken and the
	// bounded number of waiters is already parked (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrShutdown rejects a request because the server is draining
	// (HTTP 503).
	ErrShutdown = errors.New("serve: server shutting down")
	// ErrNoModel rejects a request because no model has been installed
	// yet (HTTP 503).
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrBackend marks a failed backend (decoder) invocation — the hook
	// seam errored (HTTP 502).
	ErrBackend = errors.New("serve: backend failure")
)

// Gate is a bounded admission gate: a fixed number of slots plus a
// bounded number of waiters. A request that finds a free slot runs at
// once; otherwise it parks as a waiter until a slot frees, its context
// ends or the gate closes, and when the waiters are already at the bound
// it is refused without waiting. The server holds one gate around its
// decodes and the fleet router one per replica around its forwards.
type Gate struct {
	slots     chan struct{} // one token per admitted holder
	closed    chan struct{}
	closeOnce sync.Once
	inflight  atomic.Int64
	queued    atomic.Int64 // waiters blocked on slots
	maxQueue  int64
}

// NewGate builds a gate with slots concurrent holders (at least 1) and at
// most maxQueue waiters (negative counts as 0).
func NewGate(slots, maxQueue int) *Gate {
	if slots < 1 {
		slots = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Gate{
		slots:    make(chan struct{}, slots),
		closed:   make(chan struct{}),
		maxQueue: int64(maxQueue),
	}
}

// TryAcquire takes a slot without waiting; false means every slot is held.
func (g *Gate) TryAcquire() bool {
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return true
	default:
		return false
	}
}

// Acquire takes a slot, waiting for one while ctx lives. It returns
// ErrShutdown once the gate is closed, ErrQueueFull when the waiters are
// at their bound, and ctx.Err() when the context ends first. A nil error
// must be paired with one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case <-g.closed:
		return ErrShutdown
	default:
	}
	if g.TryAcquire() {
		return nil
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		return ErrQueueFull
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		g.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-g.closed:
		return ErrShutdown
	}
}

// Release frees a slot taken by TryAcquire or Acquire.
func (g *Gate) Release() {
	g.inflight.Add(-1)
	<-g.slots
}

// Close fails every current and future waiter with ErrShutdown. Holders
// keep their slots until they Release. Safe to call more than once.
func (g *Gate) Close() { g.closeOnce.Do(func() { close(g.closed) }) }

// Inflight reports how many slots are held.
func (g *Gate) Inflight() int64 { return g.inflight.Load() }

// Queued reports how many requests are waiting for a slot.
func (g *Gate) Queued() int64 { return g.queued.Load() }

// runBackendHook executes the backend fault seam (nil hook: healthy).
// Context errors pass through unchanged (they map to 504/499); anything
// else is normalized to ErrBackend, which the handlers answer with 502.
func runBackendHook(ctx context.Context, hook func(context.Context) error) error {
	if hook == nil {
		return nil
	}
	err := hook(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return err
	default:
		return fmt.Errorf("%w: %v", ErrBackend, err)
	}
}
