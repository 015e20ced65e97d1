package retrieve

import (
	"math"
	"slices"
	"testing"
)

// TestFingerprintKnownAnswers pins Fingerprint and CacheKey to the values
// recorded before the module's SplitMix64 copies were merged: the fleet
// ring and every replica's response cache key on them.
func TestFingerprintKnownAnswers(t *testing.T) {
	var got []uint64
	for _, iv := range [][]float64{nil, {0.5}, {0.1, -1.3, 2.25}, {math.NaN(), math.Inf(1), math.Inf(-1), 0}} {
		fp := Fingerprint(iv)
		got = append(got, fp, CacheKey(fp, 5))
	}
	want := []uint64{0xc0fcb54701a5b7e5, 0x20531db239d1fd2b, 0x573d6f6a0e69a1f1, 0x5a2f64186a24b82e,
		0x293f8f8142e4c604, 0xe817df0ee19e69e7, 0x7b4c1a35ee100688, 0x953c2aea719c1f1}
	if !slices.Equal(got, want) {
		t.Fatalf("(Fingerprint, CacheKey) pairs = %#x, want %#x", got, want)
	}
}
