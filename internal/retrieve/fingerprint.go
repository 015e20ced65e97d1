// Package retrieve is the CROP-style insight-similarity retrieval layer:
// a concurrency-safe store of (normalized insight vector, recipe set, QoR,
// model version) outcomes with nearest-neighbor lookup, plus a
// version-stamped response cache for the serving tier. The store is fed
// three ways — replayed from an obs run journal on disk, updated live by
// the online tuner after every flow evaluation, and (for the response
// cache) by the serving layer after every decode — and consumed three
// ways: hot designs skip the decoder through the response cache, beam
// search warm-starts from neighbors' best recipe sets
// (core.Decoder.BeamSearchSeeded), and the online tuner draws its initial
// proposals from similar designs instead of cold search.
package retrieve

import (
	"math"

	"insightalign/internal/mix"
)

// fingerprintSeed separates insight fingerprints from other SplitMix64
// users in the module. It must stay stable: the fleet tier keys its
// consistent-hash ring on these fingerprints.
const fingerprintSeed = 0x496e7369676874 // "Insight"

// quantization sentinels for values the 1e-6 grid cannot represent. +Inf
// and anything whose quantized magnitude exceeds int64 share a bucket (and
// likewise for -Inf): beyond the representable grid those values are
// indistinguishable anyway, and sharing keeps the mapping total and
// platform-independent (float→int conversion of an out-of-range value is
// implementation-defined in Go, so two replicas could otherwise disagree
// on the same vector's identity).
const (
	qNaN    = int64(math.MinInt64)
	qPosInf = int64(math.MaxInt64)
	qNegInf = int64(math.MinInt64 + 1)
)

// quantize maps one insight component onto the 1e-6 grid. IEEE-754 -0.0
// is canonicalized to +0.0 before folding: the two compare equal but have
// different bit patterns, and any bit-level divergence here would hash
// identical designs to different replicas and miss the response cache.
func quantize(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return qNaN
	case math.IsInf(v, 1):
		return qPosInf
	case math.IsInf(v, -1):
		return qNegInf
	}
	r := math.Round(v * 1e6)
	switch {
	case r >= float64(1)*(1<<63): // ≥ 2^63: not representable as int64
		return qPosInf
	case r <= -float64(1)*(1<<63):
		return qNegInf
	case r == 0:
		return 0 // collapses -0.0 (and values rounding to it) with +0.0
	}
	return int64(r)
}

// Fingerprint maps an insight vector to a stable 64-bit identity: the
// consistent-hash routing key and the response-cache key. Components are
// quantized to 1e-6 before hashing so the identity survives float
// serialization jitter (a JSON round trip) while distinct designs — whose
// insight features differ at the 1e-3 scale and above — land on distinct
// keys. NaN and ±Inf quantize to fixed sentinels so a malformed vector
// still routes deterministically, and -0.0 is canonicalized to +0.0 so
// sign-of-zero jitter cannot split one design across replicas or caches.
func Fingerprint(iv []float64) uint64 {
	h := mix.SplitMix64(fingerprintSeed ^ uint64(len(iv)))
	for _, v := range iv {
		h = mix.SplitMix64(h ^ uint64(quantize(v)))
	}
	return h
}

// CacheKey folds the beam width into an insight fingerprint so the
// serve-layer response cache never hands a k=3 response to a k=5 request
// for the same design (same insight, different candidate count).
func CacheKey(fp uint64, beamWidth int) uint64 {
	return mix.SplitMix64(fp ^ uint64(beamWidth))
}

// FiniteVector reports whether every component is a finite number, the
// gate callers must apply before using a vector as a retrieval or cache
// key: Fingerprint is total, but its overflow sentinels alias distinct
// vectors (1e300 and +Inf share a bucket), which is fine for routing and
// fatal for a response cache.
func FiniteVector(iv []float64) bool { return finiteVector(iv) }

// finiteVector reports whether every component is a finite number. Vectors
// with NaN/±Inf components are routable (Fingerprint is total) but must
// never participate in similarity retrieval or response caching: NaN has
// no meaningful neighborhood, and the sentinel buckets would alias
// unrelated malformed designs.
func finiteVector(iv []float64) bool {
	for _, v := range iv {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
