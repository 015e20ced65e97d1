package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"insightalign/internal/dataset"
	"insightalign/internal/nn"
	"insightalign/internal/obs"
)

// Loss selects the alignment objective; used by the ablation experiments.
type Loss string

// Alignment losses.
const (
	// LossMDPO is the paper's margin-based DPO (Eq. 2).
	LossMDPO Loss = "mdpo"
	// LossDPO is standard DPO (Eq. 1) with a uniform reference policy —
	// no preference-magnitude margin.
	LossDPO Loss = "dpo"
)

// TrainOptions configure offline QoR alignment (Algorithm 1).
type TrainOptions struct {
	// Loss selects the pairwise objective (default LossMDPO).
	Loss Loss
	// Beta is the DPO sharpness β used by LossDPO.
	Beta float64
	// Lambda is the margin scale λ of Eq. 2 (the paper uses 2).
	Lambda float64
	// LR is the Adam learning rate.
	LR float64
	// Epochs is the number of passes over the sampled pair set.
	Epochs int
	// MaxPairsPerDesign subsamples the O(points²) pair set per design per
	// epoch; 0 uses every pair.
	MaxPairsPerDesign int
	// MinQoRGap skips near-tie pairs whose preference is mostly noise.
	MinQoRGap float64
	// ClipNorm caps the gradient norm per update (0 disables).
	ClipNorm float64
	// Seed drives pair subsampling and shuffling.
	Seed int64
	// CosineLR anneals the learning rate from LR to ~0 over Epochs with a
	// half-cosine schedule.
	CosineLR bool
	// ValidationFrac, if positive, holds out that fraction of pairs each
	// epoch to measure validation pair accuracy.
	ValidationFrac float64
	// Patience, with ValidationFrac set, stops training after this many
	// epochs without validation improvement (0 disables early stopping).
	Patience int
	// Progress, if non-nil, receives per-epoch statistics.
	Progress func(epoch int, stats EpochStats)
	// BatchSize, if positive, replaces Algorithm 1's per-pair updates with
	// minibatch Adam steps on the mean pair gradient, computed by the
	// data-parallel TrainEngine. 0 keeps the paper's per-pair schedule on a
	// single goroutine.
	BatchSize int
	// Workers sizes the data-parallel worker pool used when BatchSize > 0
	// (0 = NumCPU). The trained parameters are bit-identical at any worker
	// count; only wall-clock changes.
	Workers int
	// Journal, if non-nil, receives one "train_epoch" record per epoch so
	// the run's loss/accuracy trajectory can be reconstructed offline.
	Journal *obs.Journal
}

// DefaultTrainOptions returns the paper's hyperparameters with practical
// optimization defaults.
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		Loss:              LossMDPO,
		Beta:              0.5,
		Lambda:            2,
		LR:                3e-4,
		Epochs:            8,
		MaxPairsPerDesign: 400,
		MinQoRGap:         0.05,
		ClipNorm:          5,
		Seed:              1,
	}
}

// EpochStats summarize one alignment epoch.
type EpochStats struct {
	Pairs        int
	MeanLoss     float64
	ZeroLossFrac float64 // pairs already satisfying the margin
	// PairAccuracy is the fraction of pairs where the model assigns the
	// winner a higher likelihood than the loser.
	PairAccuracy float64
	// ValAccuracy is the held-out pair accuracy (0 without validation).
	ValAccuracy float64
	// Duration is the wall-clock time of the epoch's update loop
	// (excluding pair construction and validation).
	Duration time.Duration
	// PairsPerSec is the update-loop throughput, Pairs / Duration.
	PairsPerSec float64
}

// TrainStats summarize a full alignment run.
type TrainStats struct {
	Epochs     []EpochStats
	FinalLoss  float64
	TotalPairs int
}

// EpochJournalEntry is the "data" payload of a "train_epoch" journal
// record — EpochStats in stable JSON field names.
type EpochJournalEntry struct {
	Epoch        int     `json:"epoch"`
	Pairs        int     `json:"pairs"`
	MeanLoss     float64 `json:"mean_loss"`
	ZeroLossFrac float64 `json:"zero_loss_frac"`
	PairAccuracy float64 `json:"pair_accuracy"`
	ValAccuracy  float64 `json:"val_accuracy"`
	DurationSec  float64 `json:"duration_sec"`
	PairsPerSec  float64 `json:"pairs_per_sec"`
}

func epochJournal(epoch int, es EpochStats) EpochJournalEntry {
	return EpochJournalEntry{
		Epoch:        epoch,
		Pairs:        es.Pairs,
		MeanLoss:     es.MeanLoss,
		ZeroLossFrac: es.ZeroLossFrac,
		PairAccuracy: es.PairAccuracy,
		ValAccuracy:  es.ValAccuracy,
		DurationSec:  es.Duration.Seconds(),
		PairsPerSec:  es.PairsPerSec,
	}
}

// pair is one oriented preference comparison.
type pair struct {
	insight []float64
	winBits []int
	losBits []int
	gap     float64 // QoR(win) − QoR(los) > 0
}

// buildPairs enumerates (and optionally subsamples) preference pairs per
// design from the training points, per Algorithm 1 line 7. Candidate pairs
// are enumerated as point indices and only the kept ones are materialized:
// each point's bits are built once and shared by its pairs, as is each
// distinct insight slice, and the subsampling shuffle runs over the index
// pairs with the same length — and so the same rng stream — as a shuffle
// of the materialized pairs would.
func buildPairs(points []dataset.Point, maxPerDesign int, minGap float64, rng *rand.Rand) []pair {
	byDesign := map[string][]int{}
	var order []string
	for i, p := range points {
		if _, ok := byDesign[p.DesignName]; !ok {
			order = append(order, p.DesignName)
		}
		byDesign[p.DesignName] = append(byDesign[p.DesignName], i)
	}
	type cand struct {
		w, l int // indices into points
		gap  float64
	}
	var (
		pairs []pair
		cands []cand
		bits  = make([][]int, len(points))
	)
	bitsOf := func(i int) []int {
		if bits[i] == nil {
			bits[i] = points[i].Set.Bits()
		}
		return bits[i]
	}
	for _, name := range order {
		idx := byDesign[name]
		cands = cands[:0]
		for a := 0; a < len(idx); a++ {
			for b := a + 1; b < len(idx); b++ {
				w, l := idx[a], idx[b]
				gap := points[w].QoR - points[l].QoR
				if gap < 0 {
					w, l, gap = l, w, -gap
				}
				// A zero-gap pair carries no preference: with MinQoRGap=0 it
				// would label a "winner" by point order, injecting a
				// contradictory pair for every tied duplicate. Skip ties
				// unconditionally.
				if gap == 0 || gap < minGap {
					continue
				}
				cands = append(cands, cand{w: w, l: l, gap: gap})
			}
		}
		if maxPerDesign > 0 && len(cands) > maxPerDesign {
			rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			cands = cands[:maxPerDesign]
		}
		var iv []float64 // the last materialized insight, shared while it repeats
		for _, c := range cands {
			w := &points[c.w]
			if iv == nil || !sameInsight(iv, w.Insight[:]) {
				iv = w.Insight.Slice()
			}
			pairs = append(pairs, pair{insight: iv, winBits: bitsOf(c.w), losBits: bitsOf(c.l), gap: c.gap})
		}
	}
	return pairs
}

func sameInsight(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// pairTerm is the engine term of one oriented pair: Eq. 2 (LossMDPO) or
// Eq. 1 (LossDPO).
func pairTerm(p pair, opt TrainOptions) Term {
	loss := MDPOLoss(opt.Lambda * p.gap)
	if opt.Loss == LossDPO {
		loss = DPOLoss(opt.Beta)
	}
	return Term{Insight: p.insight, Win: p.winBits, Los: p.losBits, Loss: loss}
}

// pairAccurate reports whether the loss value indicates the model already
// prefers the winner: DPO loss below ln 2 means σ(β·diff) > ½, and an MDPO
// hinge below the full margin λ·gap means diff > 0.
func pairAccurate(v float64, p pair, opt TrainOptions) bool {
	if opt.Loss == LossDPO {
		return v < math.Ln2
	}
	return v < opt.Lambda*p.gap
}

// runEpoch shards each minibatch of batch pairs across the engine's worker
// pool and takes one Adam step on the mean pair gradient. All forward
// passes in a minibatch see the same parameter snapshot, so per-pair loss
// values — and every EpochStats field except Duration/PairsPerSec — are
// invariant across worker counts. With batch 1 on one worker this is
// Algorithm 1's per-pair schedule: the engine's mean over one term is
// that term's gradient, bit for bit. The per-pair schedule (BatchSize 0)
// records no minibatch or chunk span per pair.
func (m *Model) runEpoch(ctx context.Context, engine *TrainEngine, adam *nn.Adam, pairs []pair, opt TrainOptions, batch int, es *EpochStats) {
	terms := make([]Term, 0, batch)
	for lo := 0; lo < len(pairs); lo += batch {
		hi := min(lo+batch, len(pairs))
		terms = terms[:0]
		for _, p := range pairs[lo:hi] {
			terms = append(terms, pairTerm(p, opt))
		}
		mbCtx, mbSpan := context.Background(), (*obs.Span)(nil)
		if opt.BatchSize > 0 {
			mbCtx, mbSpan = obs.StartSpan(ctx, "minibatch")
			mbSpan.SetAttr("pairs", strconv.Itoa(hi-lo))
		}
		vals := engine.Accumulate(mbCtx, terms)
		step := false
		for i, v := range vals {
			es.MeanLoss += v
			if v == 0 {
				es.ZeroLossFrac++
			} else {
				step = true
			}
			if pairAccurate(v, pairs[lo+i], opt) {
				es.PairAccuracy++
			}
		}
		// A batch whose every pair already satisfies its margin
		// contributes no gradient and no Adam step.
		if step {
			adam.Step()
		}
		if mbSpan != nil {
			mbSpan.End()
		}
	}
}

// AlignmentTrain runs offline QoR alignment (Algorithm 1, ALIGNMENTTRAIN):
// per-pair stochastic updates of the margin-based DPO loss with Adam, or —
// with BatchSize > 0 — minibatch updates sharded across Workers. Both run
// on the TrainEngine's flat kernels.
func (m *Model) AlignmentTrain(points []dataset.Point, opt TrainOptions) (*TrainStats, error) {
	if opt.Lambda <= 0 {
		return nil, fmt.Errorf("core: Lambda must be positive")
	}
	if opt.Loss == LossDPO && opt.Beta <= 0 {
		return nil, fmt.Errorf("core: Beta must be positive for DPO loss")
	}
	if opt.Epochs < 1 {
		return nil, fmt.Errorf("core: Epochs must be >= 1")
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("core: no training points")
	}
	if opt.ValidationFrac < 0 || opt.ValidationFrac >= 1 {
		return nil, fmt.Errorf("core: ValidationFrac %g out of [0,1)", opt.ValidationFrac)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	adam := nn.NewAdam(m.Params(), opt.LR)
	adam.ClipNorm = opt.ClipNorm
	batch, workers := 1, 1
	if opt.BatchSize > 0 {
		batch, workers = opt.BatchSize, opt.Workers
	}
	engine := NewTrainEngine(m, workers)
	coreMetrics()
	runCtx, runSpan := obs.StartSpan(context.Background(), "alignment_train")
	runSpan.SetAttr("epochs", strconv.Itoa(opt.Epochs))
	defer runSpan.End()

	stats := &TrainStats{}
	bestVal, sinceBest := -1.0, 0
	for epoch := 0; epoch < opt.Epochs; epoch++ {
		if opt.CosineLR && opt.Epochs > 1 {
			adam.SetLR(opt.LR * 0.5 * (1 + math.Cos(math.Pi*float64(epoch)/float64(opt.Epochs-1))))
		}
		pairs := buildPairs(points, opt.MaxPairsPerDesign, opt.MinQoRGap, rng)
		if len(pairs) == 0 {
			return nil, fmt.Errorf("core: no preference pairs (MinQoRGap too large?)")
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		var valPairs []pair
		if opt.ValidationFrac > 0 {
			nVal := int(float64(len(pairs)) * opt.ValidationFrac)
			if nVal > 0 && nVal < len(pairs) {
				valPairs, pairs = pairs[:nVal], pairs[nVal:]
			}
		}

		es := EpochStats{Pairs: len(pairs)}
		epochCtx, epochSpan := obs.StartSpan(runCtx, "train_epoch")
		epochSpan.SetAttr("epoch", strconv.Itoa(epoch))
		epochSpan.SetAttr("pairs", strconv.Itoa(len(pairs)))
		start := time.Now()
		m.runEpoch(epochCtx, engine, adam, pairs, opt, batch, &es)
		epochSpan.End()
		es.Duration = time.Since(start)
		if es.Duration > 0 {
			es.PairsPerSec = float64(es.Pairs) / es.Duration.Seconds()
		}
		es.MeanLoss /= float64(es.Pairs)
		es.ZeroLossFrac /= float64(es.Pairs)
		es.PairAccuracy /= float64(es.Pairs)
		if len(valPairs) > 0 {
			correct := 0
			for _, p := range valPairs {
				if m.SeqLogProb(p.insight, p.winBits) > m.SeqLogProb(p.insight, p.losBits) {
					correct++
				}
			}
			es.ValAccuracy = float64(correct) / float64(len(valPairs))
		}
		stats.Epochs = append(stats.Epochs, es)
		stats.TotalPairs += es.Pairs
		stats.FinalLoss = es.MeanLoss
		trainPairsTotal.Add(float64(es.Pairs))
		trainEpochsStat.Inc()
		trainEpochLoss.Set(es.MeanLoss)
		trainPairAcc.Set(es.PairAccuracy)
		trainPairsRate.Set(es.PairsPerSec)
		if err := opt.Journal.Record("train_epoch", epochJournal(epoch, es)); err != nil {
			return nil, fmt.Errorf("core: journal epoch %d: %w", epoch, err)
		}
		if opt.Progress != nil {
			opt.Progress(epoch, es)
		}
		if err := nn.CheckFinite(m); err != nil {
			return nil, fmt.Errorf("core: parameters diverged at epoch %d: %w", epoch, err)
		}
		if len(valPairs) > 0 && opt.Patience > 0 {
			if es.ValAccuracy > bestVal {
				bestVal, sinceBest = es.ValAccuracy, 0
			} else if sinceBest++; sinceBest >= opt.Patience {
				break // early stop: validation accuracy plateaued
			}
		}
	}
	return stats, nil
}
