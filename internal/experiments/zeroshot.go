package experiments

import (
	"fmt"
	"sort"
	"strings"

	"insightalign/internal/core"
	"insightalign/internal/recipe"
)

// ZeroShotRow is one design's zero-shot evaluation of a fixed model —
// the Table IV comparison applied to a single checkpoint instead of
// per-fold models.
type ZeroShotRow struct {
	Design   string
	BestQoR  float64 // best QoR among the model's K recommendations
	KnownQoR float64 // best known QoR in the archive
	WinPct   float64 // % of archive points the best recommendation beats
}

// ZeroShotResult is EvalModelZeroShot's output.
type ZeroShotResult struct {
	Rows []ZeroShotRow
}

// MeanWinPct averages Win% across designs.
func (r *ZeroShotResult) MeanWinPct() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	var s float64
	for _, row := range r.Rows {
		s += row.WinPct
	}
	return s / float64(len(r.Rows))
}

// MeanBestQoR averages the best recommended QoR across designs.
func (r *ZeroShotResult) MeanBestQoR() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	var s float64
	for _, row := range r.Rows {
		s += row.BestQoR
	}
	return s / float64(len(r.Rows))
}

// EvalModelZeroShot runs the Table-IV-style zero-shot evaluation for one
// fixed model over the given designs (all dataset designs when empty):
// beam-search top-K recommendation per design, flow evaluation of every
// recommendation, Win% against the design's known archive points. This
// is the before/after harness behind `insightalign-ctl merge -eval` — a
// linearly merged generalist is judged on exactly the designs the
// specialists were tuned for, plus the ones they were not.
func (e *Env) EvalModelZeroShot(model *core.Model, designs []string) (*ZeroShotResult, error) {
	if model == nil {
		return nil, fmt.Errorf("experiments: zero-shot eval of nil model")
	}
	if len(designs) == 0 {
		designs = append([]string(nil), e.Data.Designs...)
	}
	ivs := make([][]float64, len(designs))
	for i, design := range designs {
		iv, ok := e.Data.InsightOf(design)
		if !ok {
			return nil, fmt.Errorf("experiments: no insight for %s", design)
		}
		ivs[i] = iv.Slice()
	}
	candsPerDesign := model.BeamSearchBatch(ivs, e.Cfg.BeamK)
	res := &ZeroShotResult{}
	for i, design := range designs {
		cands := candsPerDesign[i]
		sets := make([]recipe.Set, len(cands))
		for k, c := range cands {
			sets[k] = c.Set
		}
		evals, err := e.EvaluateSets(design, sets, e.Cfg.Seed*2027+int64(i))
		if err != nil {
			return nil, err
		}
		best := evals[0]
		for _, ev := range evals[1:] {
			if ev.QoR > best.QoR {
				best = ev
			}
		}
		bestKnown, _ := e.Data.BestKnown(design)
		known := e.Data.PointsOf(design)
		wins := 0
		for _, kp := range known {
			if best.QoR > kp.QoR {
				wins++
			}
		}
		res.Rows = append(res.Rows, ZeroShotRow{
			Design:   design,
			BestQoR:  best.QoR,
			KnownQoR: bestKnown.QoR,
			WinPct:   100 * float64(wins) / float64(len(known)),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return designOrder(res.Rows[i].Design) < designOrder(res.Rows[j].Design)
	})
	return res, nil
}

// FormatZeroShotDelta renders a before/after comparison of two zero-shot
// evaluations over the same designs — the merge CLI's report.
func FormatZeroShotDelta(label string, before, after *ZeroShotResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Zero-shot before/after: %s\n", label)
	fmt.Fprintf(&b, "%-8s %12s %12s %10s %10s\n", "design", "QoR before", "QoR after", "Win%% bef", "Win%% aft")
	afterBy := map[string]ZeroShotRow{}
	for _, row := range after.Rows {
		afterBy[row.Design] = row
	}
	for _, row := range before.Rows {
		a := afterBy[row.Design]
		fmt.Fprintf(&b, "%-8s %12.4f %12.4f %9.1f%% %9.1f%%\n",
			row.Design, row.BestQoR, a.BestQoR, row.WinPct, a.WinPct)
	}
	fmt.Fprintf(&b, "mean Win%%: %.1f%% -> %.1f%%   mean best QoR: %.4f -> %.4f\n",
		before.MeanWinPct(), after.MeanWinPct(), before.MeanBestQoR(), after.MeanBestQoR())
	return b.String()
}
