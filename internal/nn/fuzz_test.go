package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"insightalign/internal/tensor"
)

// fuzzModule builds the same small heterogeneous module as testModule but
// accepts a testing.TB so both the fuzz harness and its targets can use it.
func fuzzModule(tb testing.TB, seed int64) []*tensor.Tensor {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	var ps []*tensor.Tensor
	ps = append(ps, NewEmbedding(rng, 3, 8).Params()...)
	ps = append(ps, NewLinear(rng, 8, 4).Params()...)
	ps = append(ps, NewDecoderLayer(rng, 8, 16).Params()...)
	return ps
}

// validStream serializes a module into the current (v2) format.
func validStream(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, fuzzModule(tb, 1)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadParams asserts the loader's safety contract on arbitrary bytes:
// it must never panic, and when it returns an error the destination module
// must be bit-for-bit untouched (no partial mutation). Successful loads of
// mutated-but-structurally-valid streams are fine — payload bits are data.
func FuzzLoadParams(f *testing.F) {
	valid := validStream(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:4])            // magic only
	f.Add(valid[:8])            // magic + count
	f.Add(valid[:len(valid)/2]) // mid-payload truncation
	f.Add(valid[:len(valid)-1]) // one byte short
	for _, pos := range []int{0, 4, 8, 12, len(valid) / 2} {
		flipped := append([]byte(nil), valid...)
		flipped[pos] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mod := fuzzModule(t, 2)
		before := snapshot(mod)
		if err := LoadParams(bytes.NewReader(data), mod); err != nil {
			if !equalSnapshots(before, snapshot(mod)) {
				t.Fatalf("failed load partially mutated the module: %v", err)
			}
		}
	})
}

// TestLoadParamsTruncationsNeverPartiallyMutate walks every truncation
// point of a valid stream deterministically (the fuzz property, checked in
// plain `go test` runs): a strict prefix must error and leave the module
// untouched.
func TestLoadParamsTruncationsNeverPartiallyMutate(t *testing.T) {
	valid := validStream(t)
	for n := 0; n < len(valid); n++ {
		mod := fuzzModule(t, 2)
		before := snapshot(mod)
		err := LoadParams(bytes.NewReader(valid[:n]), mod)
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded without error", n, len(valid))
		}
		if !equalSnapshots(before, snapshot(mod)) {
			t.Fatalf("truncation to %d bytes partially mutated the module", n)
		}
	}
}

// TestLoadParamsBitFlips flips each bit of the header region and one bit
// deep in the payload: corrupted streams either fail cleanly (module
// untouched) or load fully — never panic, never half-apply.
func TestLoadParamsBitFlips(t *testing.T) {
	valid := validStream(t)
	positions := make([]int, 0, 24*8+8)
	for p := 0; p < 24; p++ { // magic, count, and first tensor's header
		positions = append(positions, p)
	}
	positions = append(positions, len(valid)-9) // inside the last payload
	for _, pos := range positions {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), valid...)
			mut[pos] ^= 1 << bit
			mod := fuzzModule(t, 2)
			before := snapshot(mod)
			if err := LoadParams(bytes.NewReader(mut), mod); err != nil {
				if !equalSnapshots(before, snapshot(mod)) {
					t.Fatalf("flip byte %d bit %d: failed load mutated the module", pos, bit)
				}
			}
		}
	}
}
