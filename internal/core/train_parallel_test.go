package core

import (
	"math/rand"
	"testing"

	"insightalign/internal/dataset"
	"insightalign/internal/insight"
)

// trainSetup is the shared fixture of the parallel-training tests: a
// fresh small model, synthetic points and minibatch options.
func trainSetup(t *testing.T, workers int, loss Loss) (*Model, []dataset.Point, TrainOptions) {
	t.Helper()
	m := smallModel(t, 7)
	rng := rand.New(rand.NewSource(11))
	pts := syntheticPoints(rng, 6, 14)
	opt := DefaultTrainOptions()
	opt.Loss = loss
	opt.Epochs = 2
	opt.MaxPairsPerDesign = 40
	opt.BatchSize = 16
	opt.Workers = workers
	opt.Seed = 3
	return m, pts, opt
}

// trainedParams trains a fresh small model on the same synthetic data and
// options (modulo workers) and returns flattened final parameters.
func trainedParams(t *testing.T, workers int, loss Loss) ([]float64, *TrainStats) {
	t.Helper()
	m, pts, opt := trainSetup(t, workers, loss)
	st, err := m.AlignmentTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return flatParams(m), st
}

// TestParallelTrainEquivalence is the determinism guard for the
// data-parallel engine: chunk boundaries and reduction order are fixed by
// minibatch position, so final parameters must be bit-identical at any
// worker count — not approximately equal — and to a twin trained on the
// tape engine with the same chunked reduction.
func TestParallelTrainEquivalence(t *testing.T) {
	for _, loss := range []Loss{LossMDPO, LossDPO} {
		p1, s1 := trainedParams(t, 1, loss)
		p8, s8 := trainedParams(t, 8, loss)
		tm, pts, opt := trainSetup(t, 1, loss)
		tapeAlignmentTrain(t, tm, pts, opt)
		assertBitsEqual(t, string(loss)+": Workers=1 vs tape twin", p1, flatParams(tm))
		if len(p1) != len(p8) || len(p1) == 0 {
			t.Fatalf("%s: param count mismatch: %d vs %d", loss, len(p1), len(p8))
		}
		for i := range p1 {
			if p1[i] != p8[i] {
				t.Fatalf("%s: param[%d] differs: Workers=1 %v, Workers=8 %v", loss, i, p1[i], p8[i])
			}
		}
		// Loss statistics are computed from the same per-pair values.
		for e := range s1.Epochs {
			if s1.Epochs[e].MeanLoss != s8.Epochs[e].MeanLoss {
				t.Errorf("%s: epoch %d MeanLoss differs: %v vs %v",
					loss, e, s1.Epochs[e].MeanLoss, s8.Epochs[e].MeanLoss)
			}
		}
	}
}

// TestEpochStatsInvariantAcrossWorkers is the property test that epoch
// statistics (everything except wall-clock fields) do not depend on the
// worker count.
func TestEpochStatsInvariantAcrossWorkers(t *testing.T) {
	_, ref := trainedParams(t, 1, LossMDPO)
	for _, workers := range []int{2, 3, 5, 8} {
		_, st := trainedParams(t, workers, LossMDPO)
		if len(st.Epochs) != len(ref.Epochs) {
			t.Fatalf("Workers=%d: %d epochs, want %d", workers, len(st.Epochs), len(ref.Epochs))
		}
		for e := range st.Epochs {
			got, want := st.Epochs[e], ref.Epochs[e]
			if got.Pairs != want.Pairs {
				t.Errorf("Workers=%d epoch %d: Pairs=%d, want %d", workers, e, got.Pairs, want.Pairs)
			}
			if got.MeanLoss != want.MeanLoss || got.ZeroLossFrac != want.ZeroLossFrac ||
				got.PairAccuracy != want.PairAccuracy || got.ValAccuracy != want.ValAccuracy {
				t.Errorf("Workers=%d epoch %d: stats %+v, want %+v", workers, e, got, want)
			}
		}
	}
}

// TestBatchedTrainingLearns checks the minibatch path actually optimizes:
// pair accuracy on the insight-conditional synthetic task must improve and
// end well above chance.
func TestBatchedTrainingLearns(t *testing.T) {
	m := smallModel(t, 5)
	rng := rand.New(rand.NewSource(9))
	pts := syntheticPoints(rng, 6, 16)
	opt := DefaultTrainOptions()
	opt.Epochs = 10
	opt.BatchSize = 16
	opt.Workers = 4
	// Mean-gradient steps are ~BatchSize× smaller than Algorithm 1's
	// per-pair steps; compensate so few epochs suffice.
	opt.LR = 3e-3
	st, err := m.AlignmentTrain(pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	first := st.Epochs[0].PairAccuracy
	last := st.Epochs[len(st.Epochs)-1].PairAccuracy
	if last < 0.75 {
		t.Fatalf("final pair accuracy %.3f < 0.75", last)
	}
	if last <= first {
		t.Errorf("pair accuracy did not improve: first %.3f, last %.3f", first, last)
	}
	if st.Epochs[0].PairsPerSec <= 0 || st.Epochs[0].Duration <= 0 {
		t.Errorf("throughput stats not populated: %+v", st.Epochs[0])
	}
}

// TestSupervisedBatchedEquivalence guards the supervised path's use of the
// same engine: Workers=1 and Workers=8 minibatch runs agree bit-for-bit.
func TestSupervisedBatchedEquivalence(t *testing.T) {
	run := func(workers int) ([]float64, float64) {
		m := smallModel(t, 13)
		rng := rand.New(rand.NewSource(17))
		pts := syntheticPoints(rng, 5, 12)
		opt := DefaultSupervisedOptions()
		opt.Epochs = 2
		opt.BatchSize = 8
		opt.Workers = workers
		nll, err := m.SupervisedTrain(pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Data...)
		}
		return flat, nll
	}
	p1, n1 := run(1)
	p8, n8 := run(8)
	if n1 != n8 {
		t.Fatalf("final NLL differs: %v vs %v", n1, n8)
	}
	for i := range p1 {
		if p1[i] != p8[i] {
			t.Fatalf("param[%d] differs: %v vs %v", i, p1[i], p8[i])
		}
	}
}

// TestBuildPairsSkipsZeroGap is the regression test for the zero-gap bug:
// with MinQoRGap=0, duplicate-QoR points used to produce a pair whose
// "winner" was chosen by point order — a contradictory label for every tied
// duplicate. Ties must be skipped unconditionally.
func TestBuildPairsSkipsZeroGap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var iv insight.Vector
	iv[0] = 1
	mk := func(q float64, seed int64) dataset.Point {
		r := rand.New(rand.NewSource(seed))
		return dataset.Point{DesignName: "dup", Insight: iv, Set: dataset.SampleSet(r, 4), QoR: q}
	}
	pts := []dataset.Point{mk(0.5, 1), mk(0.5, 2), mk(0.5, 3), mk(0.9, 4)}
	pairs := buildPairs(pts, 0, 0, rng)
	// Only the three (0.9 vs 0.5) comparisons carry a preference; the three
	// tied (0.5, 0.5) combinations must be dropped.
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3 (zero-gap pairs must be skipped)", len(pairs))
	}
	for _, p := range pairs {
		if p.gap <= 0 {
			t.Errorf("pair with non-positive gap %v admitted", p.gap)
		}
	}
	// All-tied input yields no pairs at all rather than arbitrary labels.
	tied := []dataset.Point{mk(0.5, 1), mk(0.5, 2), mk(0.5, 3)}
	if got := buildPairs(tied, 0, 0, rng); len(got) != 0 {
		t.Fatalf("all-tied input produced %d pairs, want 0", len(got))
	}
}
