package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Edge-case coverage for the parallel multi-design fan-out behind
// zero-shot evaluation.

func TestBeamSearchBatchZeroDesigns(t *testing.T) {
	m := smallModel(t, 1)
	out := m.BeamSearchBatch(nil, 5)
	if len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
	out = m.BeamSearchBatch([][]float64{}, 5)
	if len(out) != 0 {
		t.Fatalf("zero-length batch returned %d results", len(out))
	}
}

func TestBeamSearchBatchSingleDesign(t *testing.T) {
	m := smallModel(t, 2)
	rng := rand.New(rand.NewSource(52))
	iv := randomInsight(rng)
	batch := m.BeamSearchBatch([][]float64{iv}, 5)
	if len(batch) != 1 {
		t.Fatalf("%d results, want 1", len(batch))
	}
	direct := m.BeamSearch(iv, 5)
	if len(batch[0]) != len(direct) {
		t.Fatalf("%d candidates, want %d", len(batch[0]), len(direct))
	}
	for j := range direct {
		if batch[0][j].Set != direct[j].Set || batch[0][j].LogProb != direct[j].LogProb {
			t.Fatalf("candidate %d mismatch", j)
		}
	}
}

// Fewer inputs than CPUs: the pool must clamp workers to the input count
// and still return everything in input order.
func TestBeamSearchBatchWorkerPoolLargerThanInput(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Log("single-CPU machine: pool clamp still exercised with 1 worker")
	}
	m := smallModel(t, 3)
	rng := rand.New(rand.NewSource(53))
	ivs := [][]float64{randomInsight(rng), randomInsight(rng)}
	batch := m.BeamSearchBatch(ivs, 3)
	if len(batch) != 2 {
		t.Fatalf("%d results, want 2", len(batch))
	}
	for i, iv := range ivs {
		direct := m.BeamSearch(iv, 3)
		for j := range direct {
			if batch[i][j].Set != direct[j].Set {
				t.Fatalf("design %d candidate %d out of order or wrong", i, j)
			}
		}
	}
}

// Concurrent BeamSearchBatch calls against one model, sharing its pooled
// decoder sessions. Run under -race by `make check` and the CI race job.
func TestBeamSearchBatchConcurrentCalls(t *testing.T) {
	m := smallModel(t, 6)
	rng := rand.New(rand.NewSource(56))
	ivs := make([][]float64, 6)
	want := make([][]Candidate, len(ivs))
	for i := range ivs {
		ivs[i] = randomInsight(rng)
		want[i] = m.BeamSearch(ivs[i], 4)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := m.BeamSearchBatch(ivs, 4)
			for i := range want {
				for j := range want[i] {
					if batch[i][j].Set != want[i][j].Set || batch[i][j].LogProb != want[i][j].LogProb {
						errs <- "concurrent batch diverged from sequential result"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
