package mix

import (
	"slices"
	"testing"
)

// TestSplitMix64KnownAnswers pins the function's outputs: fingerprints,
// ring points and canary splits derived from it are shared across
// processes and restarts.
func TestSplitMix64KnownAnswers(t *testing.T) {
	var got []uint64
	for _, x := range []uint64{0, 1, 0xdeadbeef, 1 << 63, ^uint64(0)} {
		got = append(got, SplitMix64(x))
	}
	want := []uint64{0xe220a8397b1dcdaf, 0x910a2dec89025cc1, 0x4adfb90f68c9eb9b, 0x481ec0a212a9f3db, 0xe4d971771b652c20}
	if !slices.Equal(got, want) {
		t.Fatalf("SplitMix64 = %#x, want %#x", got, want)
	}
}
