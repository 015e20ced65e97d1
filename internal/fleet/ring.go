package fleet

import (
	"hash/fnv"
	"sort"
	"sync"

	"insightalign/internal/mix"
)

// Ring is a consistent-hash ring over replica IDs with virtual nodes.
// Each replica owns VNodes points on the ring; a key is served by the
// first point clockwise of its hash. Virtual nodes keep ownership shares
// within a few percent of uniform, and membership changes move only the
// keys owned by the changed replica (the consistent-hashing property the
// affinity cache depends on). Safe for concurrent use: lookups take a
// read lock, Set rebuilds under the write lock.
type Ring struct {
	vnodes int

	mu       sync.RWMutex
	points   []ringPoint // sorted by hash
	ids      []string    // current membership, sorted
	rebuilds uint64      // membership-changing Set calls
}

type ringPoint struct {
	hash uint64
	id   int // index into ids
}

// NewRing builds an empty ring with the given virtual nodes per replica.
func NewRing(vnodes int) *Ring { return &Ring{vnodes: vnodes} }

// hashID hashes a replica ID string to its base ring position.
func hashID(id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return h.Sum64()
}

// Set replaces the ring membership, rebuilding the point table. Returns
// true when the membership actually changed (the rebalance the metrics
// count); setting an identical member set is a no-op.
func (r *Ring) Set(ids []string) bool {
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if equalStrings(r.ids, sorted) {
		return false
	}
	r.ids = sorted
	r.points = r.points[:0]
	for i, id := range sorted {
		base := hashID(id)
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: mix.SplitMix64(base ^ uint64(v)<<1), id: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	r.rebuilds++
	return true
}

// Members returns the current membership, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.ids...)
}

// Rebuilds reports how many membership-changing Set calls have happened.
func (r *Ring) Rebuilds() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.rebuilds
}

// Owner returns the replica owning key, or "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	order := r.Order(key, 1)
	if len(order) == 0 {
		return ""
	}
	return order[0]
}

// Order returns up to max distinct replicas in preference order for key:
// the owner first, then each successive distinct replica clockwise. This
// is the failover / bounded-load walk — when the owner is unhealthy,
// over-loaded, or breaker-open, the key falls to the next replica in ring
// order, which is stable across requests for the same key. max <= 0
// returns every member.
func (r *Ring) Order(key uint64, max int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.ids)
	if n == 0 {
		return nil
	}
	if max <= 0 || max > n {
		max = n
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]string, 0, max)
	seen := make([]bool, n)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.id] {
			seen[p.id] = true
			out = append(out, r.ids[p.id])
		}
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
