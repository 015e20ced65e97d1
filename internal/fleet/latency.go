package fleet

import (
	"sort"
	"sync"
	"time"

	"insightalign/internal/obs"
)

// latWindow is a fixed-size ring of recent successful-forward latencies.
// Percentile over it is the hedging trigger: a request still in flight
// past the window's p-quantile is presumed stuck on a slow replica and
// worth racing against a second one. The window is small (hundreds of
// samples) so the quantile tracks load shifts within seconds.
type latWindow struct {
	mu      sync.Mutex
	buf     []time.Duration
	idx     int
	n       int
	scratch []time.Duration
}

func newLatWindow() *latWindow {
	return &latWindow{buf: make([]time.Duration, latencyWindow), scratch: make([]time.Duration, 0, latencyWindow)}
}

// Add records one latency sample.
func (w *latWindow) Add(d time.Duration) {
	w.mu.Lock()
	w.buf[w.idx] = d
	w.idx = (w.idx + 1) % len(w.buf)
	if w.n < len(w.buf) {
		w.n++
	}
	w.mu.Unlock()
}

// Percentile returns the nearest-rank q-quantile of the window, or 0 when
// no samples have been recorded yet (callers fall back to a fixed
// cold-start delay).
func (w *latWindow) Percentile(q float64) time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0
	}
	w.scratch = append(w.scratch[:0], w.buf[:w.n]...)
	sort.Slice(w.scratch, func(i, j int) bool { return w.scratch[i] < w.scratch[j] })
	return obs.QuantileDur(w.scratch, q)
}
