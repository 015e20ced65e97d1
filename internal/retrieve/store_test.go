package retrieve

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"insightalign/internal/obs"
	"insightalign/internal/recipe"
)

// setN builds a recipe set with the given bit indices selected.
func setN(bits ...int) recipe.Set {
	var s recipe.Set
	for _, b := range bits {
		s[b] = true
	}
	return s
}

func TestStoreNearestCorrectness(t *testing.T) {
	s := NewStore()
	// Hand-built 3-D vectors with known cosine geometry. Scale must not
	// matter: vectors are L2-normalized at insert.
	if !s.Add([]float64{1, 0, 0}, setN(0), 1.0, "v1") {
		t.Fatal("Add rejected a finite vector")
	}
	if !s.Add([]float64{0, 5, 0}, setN(1), 2.0, "v1") {
		t.Fatal("Add rejected a finite vector")
	}
	if !s.Add([]float64{3, 3, 0}, setN(2), 3.0, "v1") {
		t.Fatal("Add rejected a finite vector")
	}

	nbrs := s.Nearest([]float64{2, 0, 0}, 3)
	if len(nbrs) != 3 {
		t.Fatalf("got %d neighbors, want 3", len(nbrs))
	}
	// cos to (1,0,0)=1, to diag=1/sqrt2≈0.707, to (0,1,0)=0.
	if nbrs[0].Sets[0] != setN(0) || math.Abs(nbrs[0].Similarity-1) > 1e-12 {
		t.Fatalf("nearest should be the axis-aligned design at sim 1, got %+v", nbrs[0])
	}
	if nbrs[1].Sets[0] != setN(2) || math.Abs(nbrs[1].Similarity-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("second should be the diagonal at 1/sqrt2, got %+v", nbrs[1])
	}
	if nbrs[2].Sets[0] != setN(1) || math.Abs(nbrs[2].Similarity) > 1e-12 {
		t.Fatalf("third should be orthogonal at 0, got %+v", nbrs[2])
	}
	if got := s.Nearest([]float64{2, 0, 0}, 1); len(got) != 1 || got[0].Sets[0] != setN(0) {
		t.Fatalf("k=1 must return only the nearest, got %+v", got)
	}
	// Dimensionality mismatch never matches.
	if got := s.Nearest([]float64{1, 0}, 3); len(got) != 0 {
		t.Fatalf("2-D query must not match 3-D designs, got %+v", got)
	}
}

func TestStoreNonFiniteNeverMatches(t *testing.T) {
	s := NewStore()
	if !s.Add([]float64{1, 2, 3}, setN(0), 1.0, "v1") {
		t.Fatal("finite Add failed")
	}
	// Non-finite and zero-norm vectors are rejected at insert...
	for _, iv := range [][]float64{
		{math.NaN(), 1, 2},
		{math.Inf(1), 1, 2},
		{1, math.Inf(-1), 2},
		{0, 0, 0},
		nil,
	} {
		if s.Add(iv, setN(1), 1.0, "v1") {
			t.Fatalf("Add(%v) must be rejected", iv)
		}
	}
	if s.Len() != 1 || s.Designs() != 1 {
		t.Fatalf("rejected vectors leaked into the store: %d outcomes, %d designs", s.Len(), s.Designs())
	}
	// ...and never match as queries either.
	for _, iv := range [][]float64{
		{math.NaN(), 1, 2},
		{math.Inf(1), 1, 2},
		{1, 2, math.Inf(-1)},
		{0, 0, 0},
		nil,
	} {
		if got := s.Nearest(iv, 5); len(got) != 0 {
			t.Fatalf("Nearest(%v) must match nothing, got %+v", iv, got)
		}
	}
	// Non-finite QoR is rejected too.
	if s.Add([]float64{4, 5, 6}, setN(2), math.NaN(), "v1") {
		t.Fatal("NaN QoR must be rejected")
	}
	if s.Add([]float64{4, 5, 6}, setN(2), math.Inf(1), "v1") {
		t.Fatal("Inf QoR must be rejected")
	}
}

func TestStoreOutcomeOrderingAndDedupe(t *testing.T) {
	s := NewStore()
	iv := []float64{1, 1, 1}
	s.Add(iv, setN(0), 1.0, "v1")
	s.Add(iv, setN(1), 3.0, "v1")
	s.Add(iv, setN(2), 2.0, "v2")
	nb := s.Nearest(iv, 1)[0]
	want := []recipe.Set{setN(1), setN(2), setN(0)}
	if !reflect.DeepEqual(nb.Sets, want) {
		t.Fatalf("sets not QoR-descending: %v", nb.Sets)
	}
	if nb.BestQoR != 3.0 {
		t.Fatalf("BestQoR %g, want 3", nb.BestQoR)
	}
	// Re-adding a known set with worse QoR keeps the better record; with
	// better QoR it re-ranks.
	s.Add(iv, setN(0), 0.5, "v1")
	if s.Len() != 3 {
		t.Fatalf("worse duplicate must not grow the store: %d", s.Len())
	}
	s.Add(iv, setN(0), 9.0, "v3")
	nb = s.Nearest(iv, 1)[0]
	if nb.Sets[0] != setN(0) || nb.BestQoR != 9.0 {
		t.Fatalf("improved duplicate must re-rank: %+v", nb)
	}
	if s.Len() != 3 {
		t.Fatalf("duplicate re-rank must not grow the store: %d", s.Len())
	}

	// BestSets flattens similarity-major then QoR-major, deduplicated.
	s.Add([]float64{1, 1, 0.9}, setN(0), 4.0, "v1") // near-duplicate design sharing set 0
	got := s.BestSets(iv, 3, -1)
	if len(got) != 3 || got[0] != setN(0) {
		t.Fatalf("BestSets = %v", got)
	}
	seen := map[recipe.Set]bool{}
	for _, st := range got {
		if seen[st] {
			t.Fatalf("BestSets returned a duplicate: %v", got)
		}
		seen[st] = true
	}
}

func TestStoreInvalidateVersion(t *testing.T) {
	s := NewStore()
	s.Add([]float64{1, 0}, setN(0), 1.0, "v1")
	s.Add([]float64{1, 0}, setN(1), 2.0, "v2")
	s.Add([]float64{0, 1}, setN(2), 3.0, "v1")
	if removed := s.Invalidate("v1"); removed != 2 {
		t.Fatalf("removed %d, want 2", removed)
	}
	if s.Len() != 1 || s.Designs() != 1 {
		t.Fatalf("after invalidate: %d outcomes, %d designs", s.Len(), s.Designs())
	}
	nb := s.Nearest([]float64{1, 0}, 2)
	if len(nb) != 1 || nb[0].Sets[0] != setN(1) {
		t.Fatalf("surviving outcome wrong: %+v", nb)
	}
	if removed := s.Invalidate("v1"); removed != 0 {
		t.Fatal("second invalidate must be a no-op")
	}
}

func TestStoreConcurrentInsertLookupInvalidate(t *testing.T) {
	// 16 goroutines hammering insert/lookup/invalidate concurrently; the
	// race detector proves the locking, the assertions prove no lost
	// updates for goroutine-private designs.
	s := NewStore()
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := float64(g + 1)
			iv := []float64{base, base * 2, 1}
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0, 1:
					s.Add(iv, setN(g%recipe.N, i%recipe.N), float64(i), fmt.Sprintf("v%d", g%3))
				case 2:
					s.Nearest(iv, 4)
					s.BestSets(iv, 8, -1)
				case 3:
					if g == 0 && i%40 == 3 {
						s.Invalidate("v2")
					}
					s.Dump()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Designs() == 0 || s.Len() == 0 {
		t.Fatal("store empty after concurrent inserts")
	}
	// Every design's outcomes must still be QoR-descending and within cap.
	for _, d := range s.Dump() {
		if len(d.Outcomes) > maxOutcomesPerDesign {
			t.Fatalf("design %x exceeds cap: %d", d.Fingerprint, len(d.Outcomes))
		}
		for i := 1; i < len(d.Outcomes); i++ {
			if d.Outcomes[i].QoR > d.Outcomes[i-1].QoR {
				t.Fatalf("design %x outcomes not QoR-descending", d.Fingerprint)
			}
		}
	}
}

func TestReplayEquivalentToLiveFeed(t *testing.T) {
	// A store fed by replaying a run journal must be byte-identical to one
	// fed live by the same outcomes in the same order.
	type iterEntry struct {
		Iteration    int       `json:"iteration"`
		Sets         []string  `json:"sets"`
		QoRs         []float64 `json:"qors"`
		Insight      []float64 `json:"insight"`
		ModelVersion string    `json:"model_version"`
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.NewJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	live := NewStore()
	ivs := [][]float64{{1, 0, 2}, {0, 3, 1}, {2, 2, 2}}
	for iter := 0; iter < 9; iter++ {
		iv := ivs[iter%len(ivs)]
		sets := []string{setN(iter % recipe.N).String(), setN((iter+7)%recipe.N, 5).String()}
		qors := []float64{float64(iter), float64(iter) * 0.5}
		ver := fmt.Sprintf("v%d", iter%2)
		if err := j.Record("online_iteration", iterEntry{
			Iteration: iter, Sets: sets, QoRs: qors, Insight: iv, ModelVersion: ver,
		}); err != nil {
			t.Fatal(err)
		}
		for i := range sets {
			set, perr := recipe.ParseSet(sets[i])
			if perr != nil {
				t.Fatal(perr)
			}
			live.Add(iv, set, qors[i], ver)
		}
		// Interleave events replay must skip.
		if iter == 4 {
			j.Record("checkpoint_saved", map[string]string{"path": "x"})
		}
	}

	replayed := NewStore()
	n, err := ReplayJournalFile(replayed, path)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("replay added nothing")
	}
	if !reflect.DeepEqual(live.Dump(), replayed.Dump()) {
		t.Fatalf("replayed store differs from live-fed store:\nlive:   %+v\nreplay: %+v",
			live.Dump(), replayed.Dump())
	}
	// And retrieval behavior is identical, not just storage.
	for _, q := range ivs {
		if !reflect.DeepEqual(live.Nearest(q, 3), replayed.Nearest(q, 3)) {
			t.Fatalf("Nearest(%v) differs between live and replayed stores", q)
		}
	}
}

func TestReplaySkipsMalformedAndLegacyEntries(t *testing.T) {
	s := NewStore()
	mk := func(event, data string) obs.Entry {
		return obs.Entry{Event: event, Data: json.RawMessage(data)}
	}
	added := ReplayEntries(s, []obs.Entry{
		mk("online_iteration", `{"sets":["not-a-bitstring"],"qors":[1],"insight":[1,2]}`),
		mk("online_iteration", `{"sets":["`+setN(3).String()+`"],"qors":[1]}`), // legacy: no insight
		mk("online_iteration", `{broken json`),
		mk("train_epoch", `{"epoch":1}`),
		mk("online_iteration", `{"sets":["`+setN(3).String()+`"],"qors":[2.5],"insight":[1,2,3]}`),
	})
	if added != 1 || s.Len() != 1 {
		t.Fatalf("added=%d len=%d, want 1/1", added, s.Len())
	}
}

func TestCacheLRUAndVersionInvalidation(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "v1", "a")
	c.Put(2, "v1", "b")
	if v, ok := c.Get(1, "v1"); !ok || v != "a" {
		t.Fatalf("Get(1) = %v %v", v, ok)
	}
	// 1 is now most-recent; inserting 3 evicts 2.
	c.Put(3, "v1", "c")
	if _, ok := c.Get(2, "v1"); ok {
		t.Fatal("LRU entry 2 should have been evicted")
	}
	if v, ok := c.Get(1, "v1"); !ok || v != "a" {
		t.Fatal("entry 1 should have survived")
	}
	// A version mismatch misses AND evicts: no stale responses, ever.
	if _, ok := c.Get(1, "v2"); ok {
		t.Fatal("stale-version Get must miss")
	}
	if c.Len() != 1 {
		t.Fatalf("stale entry not evicted: len %d", c.Len())
	}
	// Overwrite updates version and value in place.
	c.Put(3, "v2", "c2")
	if v, ok := c.Get(3, "v2"); !ok || v != "c2" {
		t.Fatalf("Get(3) after overwrite = %v %v", v, ok)
	}
	if _, ok := c.Get(3, "v1"); ok {
		t.Fatal("old version must not serve after overwrite")
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				key := uint64(i % 100)
				switch i % 3 {
				case 0:
					c.Put(key, "v1", g)
				case 1:
					c.Get(key, "v1")
				case 2:
					c.Get(key, "v2") // forces stale-path eviction races
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
