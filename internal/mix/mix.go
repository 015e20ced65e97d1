// Package mix holds SplitMix64, the 64-bit mixing function behind every
// hash split in the module: insight fingerprints and response-cache keys
// (retrieve), ring points and batch routing keys (fleet), the canary
// split (lifecycle) and fault schedules (faultinject). Its outputs are
// persisted and shared between processes — journaled canary assignments,
// replica ownership across a fleet — so they must never change.
package mix

// SplitMix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality bijective 64-bit mix.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
