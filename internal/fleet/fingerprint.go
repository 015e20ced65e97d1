// Package fleet is the horizontal serving tier: a front-end request
// router that fans /v1/recommend traffic out over N replica backends
// (each one an internal/serve process) using a consistent-hash ring keyed
// on the insight vector's fingerprint, so repeated queries for the same
// design land on the same replica (cache/retrieval affinity — the
// substrate the CROP-style retrieval cache needs). Around that core the
// router keeps per-replica health from /healthz polling plus observed
// outcomes feeding a per-replica circuit breaker (Breaker), hedges
// slow requests against a second replica after a latency-percentile
// trigger, bounds per-replica admission with queues that shed 503 +
// Retry-After when the whole fleet is saturated, and propagates
// X-Trace-Id across the hop so /debug/traces shows the full
// router→replica path.
//
// Naming note: internal/router is the EDA global router (bin-capacity
// rip-up/reroute over placed netlists); this package is the serving
// fleet. The two are unrelated.
package fleet

import (
	"insightalign/internal/mix"
	"insightalign/internal/retrieve"
)

// fingerprintSeed separates batch routing keys from other SplitMix64
// users in the module. Single insights route on retrieve.Fingerprint, so
// the router and the serve-layer response cache agree on what "the same
// design" means.
const fingerprintSeed = 0x496e7369676874 // "Insight"

// FingerprintBatch folds the element fingerprints of a client batch into
// one routing key, so an identical batch routes to the same replica while
// any element change moves it. The fold is order-sensitive: a batch is
// one request, not a set.
func FingerprintBatch(ivs [][]float64) uint64 {
	h := mix.SplitMix64(fingerprintSeed ^ 0x4261746368) // "Batch"
	for _, iv := range ivs {
		h = mix.SplitMix64(h ^ retrieve.Fingerprint(iv))
	}
	return h
}
