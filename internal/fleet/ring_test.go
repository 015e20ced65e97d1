package fleet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"insightalign/internal/mix"
	"insightalign/internal/retrieve"
)

// TestRingAndBatchKeysKnownAnswers pins ring ownership and batch routing
// keys to the values recorded before the module's SplitMix64 copies were
// merged: every replica and router of a fleet must agree on them.
func TestRingAndBatchKeysKnownAnswers(t *testing.T) {
	r := NewRing(64)
	r.Set([]string{"http://a:1", "http://b:2", "http://c:3"})
	owners := ""
	for k := uint64(0); k < 32; k++ {
		owners += r.Owner(mix.SplitMix64(k))[7:8]
	}
	if want := "bbacaacbbccabcbaabacaacbbacabcab"; owners != want {
		t.Errorf("owners of SplitMix64(0..31) = %s, want %s", owners, want)
	}
	got := []uint64{FingerprintBatch(nil), FingerprintBatch([][]float64{{1, 2, 3}, {4, 5, 6}})}
	if want := []uint64{0x8a71c3b4092bea47, 0x39f3fe81688d6059}; !slices.Equal(got, want) {
		t.Errorf("FingerprintBatch = %#x, want %#x", got, want)
	}
}

func TestFingerprintDeterministicAndSensitive(t *testing.T) {
	iv := []float64{0.1, 0.2, 0.3, -1.5}
	if retrieve.Fingerprint(iv) != retrieve.Fingerprint([]float64{0.1, 0.2, 0.3, -1.5}) {
		t.Fatal("identical vectors must fingerprint identically")
	}
	if retrieve.Fingerprint(iv) == retrieve.Fingerprint([]float64{0.1, 0.2, 0.3, -1.6}) {
		t.Fatal("distinct vectors should fingerprint differently")
	}
	if retrieve.Fingerprint([]float64{0.1, 0.2}) == retrieve.Fingerprint([]float64{0.2, 0.1}) {
		t.Fatal("fingerprint must be order-sensitive")
	}
	if retrieve.Fingerprint(nil) != retrieve.Fingerprint([]float64{}) {
		t.Fatal("nil and empty must agree")
	}
}

func TestFingerprintQuantizationAndNonFinite(t *testing.T) {
	// Values within the 1e-6 quantum collapse to one affinity key: the
	// same design re-measured with float noise still routes to its owner.
	if retrieve.Fingerprint([]float64{0.5}) != retrieve.Fingerprint([]float64{0.5 + 1e-9}) {
		t.Fatal("sub-quantum jitter must not change the fingerprint")
	}
	if retrieve.Fingerprint([]float64{0.5}) == retrieve.Fingerprint([]float64{0.5 + 1e-5}) {
		t.Fatal("super-quantum change must change the fingerprint")
	}
	// Non-finite values must hash stably, not panic or depend on NaN bits.
	nan1 := retrieve.Fingerprint([]float64{math.NaN(), 1})
	nan2 := retrieve.Fingerprint([]float64{math.Log(-1), 1})
	if nan1 != nan2 {
		t.Fatal("all NaNs must fingerprint identically")
	}
	if retrieve.Fingerprint([]float64{math.Inf(1)}) == retrieve.Fingerprint([]float64{math.Inf(-1)}) {
		t.Fatal("+Inf and -Inf must differ")
	}
}

func TestFingerprintNegativeZeroAndOverflow(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// -0.0 and +0.0 compare equal but have different bit patterns; the
	// quantizer must canonicalize so one design never splits across two
	// replicas (or misses the response cache) on sign-of-zero jitter.
	if retrieve.Fingerprint([]float64{0.0, 1.5}) != retrieve.Fingerprint([]float64{negZero, 1.5}) {
		t.Fatal("-0.0 and +0.0 must fingerprint identically")
	}
	// A tiny negative that rounds to zero must also collapse onto +0.0:
	// math.Round(-1e-9 * 1e6) yields -0.0, not +0.0.
	if retrieve.Fingerprint([]float64{0.0}) != retrieve.Fingerprint([]float64{-1e-9}) {
		t.Fatal("values rounding to -0.0 must fingerprint as +0.0")
	}
	// Quantized magnitudes beyond int64 hit implementation-defined
	// float→int conversion; they must clamp to the ±Inf sentinels so the
	// identity is deterministic and platform-independent.
	huge := 1e300
	if retrieve.Fingerprint([]float64{huge}) != retrieve.Fingerprint([]float64{math.Inf(1)}) {
		t.Fatal("overflowing positive values must share the +Inf sentinel")
	}
	if retrieve.Fingerprint([]float64{-huge}) != retrieve.Fingerprint([]float64{math.Inf(-1)}) {
		t.Fatal("overflowing negative values must share the -Inf sentinel")
	}
	if retrieve.Fingerprint([]float64{huge}) == retrieve.Fingerprint([]float64{-huge}) {
		t.Fatal("positive and negative overflow must stay distinct")
	}
}

func TestFingerprintBatchOrderSensitive(t *testing.T) {
	a, b := []float64{1, 2}, []float64{3, 4}
	if FingerprintBatch([][]float64{a, b}) == FingerprintBatch([][]float64{b, a}) {
		t.Fatal("batch fingerprint must be order-sensitive")
	}
	if FingerprintBatch([][]float64{a}) == retrieve.Fingerprint(a) {
		t.Fatal("a 1-element batch must not collide with the single fingerprint")
	}
}

func ringIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("http://127.0.0.1:%d", 8081+i)
	}
	return ids
}

func TestRingDeterministicOwner(t *testing.T) {
	r1, r2 := NewRing(64), NewRing(64)
	r1.Set(ringIDs(5))
	r2.Set(ringIDs(5))
	for k := uint64(0); k < 1000; k++ {
		key := mix.SplitMix64(k)
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner for key %d differs between identical rings", key)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(64)
	ids := ringIDs(8)
	r.Set(ids)
	counts := make(map[string]int)
	const n = 20000
	for k := 0; k < n; k++ {
		counts[r.Owner(mix.SplitMix64(uint64(k)))]++
	}
	fair := float64(n) / float64(len(ids))
	for _, id := range ids {
		c := counts[id]
		if float64(c) < 0.45*fair || float64(c) > 1.8*fair {
			t.Errorf("replica %s owns %d keys, fair share %.0f: imbalance beyond 64-vnode tolerance", id, c, fair)
		}
	}
}

func TestRingMinimalDisruption(t *testing.T) {
	ids := ringIDs(8)
	r := NewRing(64)
	r.Set(ids)
	const n = 5000
	before := make([]string, n)
	for k := 0; k < n; k++ {
		before[k] = r.Owner(mix.SplitMix64(uint64(k)))
	}
	removed := ids[3]
	survivors := append(append([]string{}, ids[:3]...), ids[4:]...)
	if !r.Set(survivors) {
		t.Fatal("membership change must rebuild the ring")
	}
	moved := 0
	for k := 0; k < n; k++ {
		after := r.Owner(mix.SplitMix64(uint64(k)))
		if before[k] == removed {
			continue // these keys must move
		}
		if after != before[k] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed replica changed owner; consistent hashing must only move the removed replica's keys", moved)
	}
	// Re-adding restores the original assignment exactly.
	r.Set(ids)
	for k := 0; k < n; k++ {
		if got := r.Owner(mix.SplitMix64(uint64(k))); got != before[k] {
			t.Fatalf("key %d owner %s after re-add, want %s", k, got, before[k])
		}
	}
}

func TestRingOrderDistinctAndOwnerFirst(t *testing.T) {
	r := NewRing(64)
	ids := ringIDs(5)
	r.Set(ids)
	for k := uint64(0); k < 200; k++ {
		key := mix.SplitMix64(k)
		order := r.Order(key, 0)
		if len(order) != len(ids) {
			t.Fatalf("Order returned %d replicas, want %d", len(order), len(ids))
		}
		if order[0] != r.Owner(key) {
			t.Fatalf("Order[0]=%s, want owner %s", order[0], r.Owner(key))
		}
		seen := make(map[string]bool)
		for _, id := range order {
			if seen[id] {
				t.Fatalf("Order repeats replica %s", id)
			}
			seen[id] = true
		}
	}
	if got := r.Order(mix.SplitMix64(7), 2); len(got) != 2 {
		t.Fatalf("Order with max=2 returned %d, want 2", len(got))
	}
}

func TestRingSetNoopAndEmpty(t *testing.T) {
	r := NewRing(64)
	if !r.Set(ringIDs(3)) {
		t.Fatal("first Set must rebuild")
	}
	if r.Set(ringIDs(3)) {
		t.Fatal("identical membership must be a no-op")
	}
	if got := r.Rebuilds(); got != 1 {
		t.Fatalf("rebuilds=%d, want 1", got)
	}
	if !r.Set(nil) {
		t.Fatal("emptying the ring is a membership change")
	}
	if r.Owner(42) != "" {
		t.Fatal("empty ring must own nothing")
	}
	if r.Order(42, 0) != nil {
		t.Fatal("empty ring must return no order")
	}
}
