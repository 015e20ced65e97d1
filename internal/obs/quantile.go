package obs

import "time"

// Quantile helpers shared by every percentile consumer in the stack: the
// fleet router's p95 hedging trigger, the lifecycle canary's p95 latency
// gate, and perfbench's latency and per-layer reports. All of them want the same thing —
// the nearest-rank quantile of an already-sorted sample — and each had
// grown a private copy with the same off-by-one hazards at tiny sample
// sizes, so the arithmetic lives here exactly once.
//
// Nearest-rank: for n samples the q-quantile is element
// ceil(q*n) - 1 ≈ round(q*n) - 1 (0-indexed), clamped into [0, n-1] so
// n = 1 returns the only sample for every q and q = 0 returns the
// minimum. An empty sample returns the zero value; callers that need to
// distinguish "no data" from "zero latency" check len before calling.

// quantileIndex returns the clamped nearest-rank index for n samples.
func quantileIndex(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// Quantile returns the nearest-rank q-quantile of sorted (ascending)
// values, 0 when the sample is empty.
func Quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileIndex(len(sorted), q)]
}

// QuantileDur is Quantile over sorted durations.
func QuantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[quantileIndex(len(sorted), q)]
}
