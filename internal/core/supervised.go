package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"insightalign/internal/dataset"
	"insightalign/internal/nn"
	"insightalign/internal/obs"
)

// SupervisedOptions configure the behavior-cloning baseline used by the
// ablation study: instead of learning preferences, the model memorizes the
// top-quantile recipe sets by maximizing their likelihood (the conventional
// supervised approach the paper argues against).
type SupervisedOptions struct {
	// TopFraction selects the per-design quantile of sets to imitate.
	TopFraction float64
	// LR, Epochs, ClipNorm, Seed as in TrainOptions.
	LR       float64
	Epochs   int
	ClipNorm float64
	Seed     int64
	// BatchSize and Workers select minibatch data-parallel training as in
	// TrainOptions; BatchSize 0 keeps per-point updates.
	BatchSize int
	Workers   int
}

// DefaultSupervisedOptions returns standard behavior-cloning settings.
func DefaultSupervisedOptions() SupervisedOptions {
	return SupervisedOptions{TopFraction: 0.25, LR: 3e-4, Epochs: 8, ClipNorm: 5, Seed: 1}
}

// SupervisedTrain maximizes log-likelihood of the best TopFraction of
// recipe sets per design. Returns the mean negative log-likelihood of the
// final epoch.
func (m *Model) SupervisedTrain(points []dataset.Point, opt SupervisedOptions) (float64, error) {
	if opt.TopFraction <= 0 || opt.TopFraction > 1 {
		return 0, fmt.Errorf("core: TopFraction %g out of (0,1]", opt.TopFraction)
	}
	if opt.Epochs < 1 {
		return 0, fmt.Errorf("core: Epochs must be >= 1")
	}
	if len(points) == 0 {
		return 0, fmt.Errorf("core: no training points")
	}
	byDesign := map[string][]dataset.Point{}
	var order []string
	for _, p := range points {
		if _, ok := byDesign[p.DesignName]; !ok {
			order = append(order, p.DesignName)
		}
		byDesign[p.DesignName] = append(byDesign[p.DesignName], p)
	}
	var targets []dataset.Point
	for _, name := range order {
		pts := append([]dataset.Point(nil), byDesign[name]...)
		sort.Slice(pts, func(i, j int) bool { return pts[i].QoR > pts[j].QoR })
		n := int(float64(len(pts))*opt.TopFraction + 0.5)
		if n < 1 {
			n = 1
		}
		targets = append(targets, pts[:n]...)
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	adam := nn.NewAdam(m.Params(), opt.LR)
	adam.ClipNorm = opt.ClipNorm
	batch, workers := 1, 1
	if opt.BatchSize > 0 {
		batch, workers = opt.BatchSize, opt.Workers
	}
	engine := NewTrainEngine(m, workers)
	runCtx, runSpan := obs.StartSpan(context.Background(), "supervised_train")
	defer runSpan.End()
	if opt.BatchSize <= 0 {
		// The per-point schedule records no chunk span per point.
		runCtx = context.Background()
	}
	terms := make([]Term, 0, batch)
	lastNLL := 0.0
	for e := 0; e < opt.Epochs; e++ {
		rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		total := 0.0
		for lo := 0; lo < len(targets); lo += batch {
			terms = terms[:0]
			for _, p := range targets[lo:min(lo+batch, len(targets))] {
				terms = append(terms, Term{Insight: p.Insight.Slice(), Win: p.Set.Bits(), Loss: NLLLoss})
			}
			// The NLL is never exactly zero: every minibatch steps.
			for _, v := range engine.Accumulate(runCtx, terms) {
				total += v
			}
			adam.Step()
		}
		lastNLL = total / float64(len(targets))
	}
	if err := nn.CheckFinite(m); err != nil {
		return lastNLL, err
	}
	return lastNLL, nil
}
