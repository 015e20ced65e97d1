// Package experiments regenerates every table and figure of the paper's
// evaluation section over the simulated substrate: Table IV (zero-shot
// offline alignment under 4-fold cross-validation), Fig. 5 (power-TNS
// scatter of recommendations vs. known recipe sets), Fig. 6 (online
// fine-tuning trajectories for D10 and D6), Fig. 7 (progressive online QoR
// scatter for D10), plus the design-choice ablations and the Section II
// baseline comparison.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"insightalign/internal/baseline"
	"insightalign/internal/core"
	"insightalign/internal/dataset"
	"insightalign/internal/flow"
	"insightalign/internal/netlist"
	"insightalign/internal/online"
	"insightalign/internal/qor"
	"insightalign/internal/recipe"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Folds is the cross-validation fold count (paper: 4).
	Folds int
	// BeamK is the number of recommendations per design (paper: 5).
	BeamK int
	// Train configures offline alignment.
	Train core.TrainOptions
	// OnlineIterations is the closed-loop iteration count for Fig. 6/7.
	OnlineIterations int
	// OnlineOptions configures the tuner.
	OnlineOptions online.Options
	// Seed drives fold assignment and evaluation seeds.
	Seed int64
}

// Default returns the paper's experiment configuration.
func Default() Config {
	return Config{
		Folds:            4,
		BeamK:            5,
		Train:            core.DefaultTrainOptions(),
		OnlineIterations: 10,
		OnlineOptions:    online.DefaultOptions(),
		Seed:             7,
	}
}

// Quick returns a configuration sized for tests and smoke runs.
func Quick() Config {
	c := Default()
	c.Train.Epochs = 3
	c.Train.MaxPairsPerDesign = 120
	c.OnlineIterations = 3
	c.OnlineOptions.K = 3
	c.OnlineOptions.MDPOPairsPerIter = 40
	return c
}

// Env holds everything the experiments share: the offline dataset and the
// regenerated design suite it was built from.
type Env struct {
	Data    *dataset.Dataset
	Designs map[string]*netlist.Netlist
	Cfg     Config
}

// NewEnv regenerates the suite matching ds and wraps it with cfg.
func NewEnv(ds *dataset.Dataset, cfg Config) (*Env, error) {
	suite, err := netlist.GenerateSuite(ds.Built.Scale)
	if err != nil {
		return nil, err
	}
	designs := map[string]*netlist.Netlist{}
	for _, nl := range suite {
		designs[nl.Name] = nl
	}
	for _, name := range ds.Designs {
		if designs[name] == nil {
			return nil, fmt.Errorf("experiments: dataset design %s not in suite", name)
		}
	}
	return &Env{Data: ds, Designs: designs, Cfg: cfg}, nil
}

// EvalPoint is one evaluated recommendation.
type EvalPoint struct {
	Set     recipe.Set
	Metrics flow.Metrics
	QoR     float64
}

// EvaluateSets runs the flow on each candidate set for a design (in
// parallel, per the Fig. 2 "N recipe sets per iteration" model) and scores
// each against the design's archive statistics.
func (e *Env) EvaluateSets(designName string, sets []recipe.Set, seedBase int64) ([]EvalPoint, error) {
	runner := flow.NewRunner(e.Designs[designName])
	stats, err := e.Data.StatsOf(designName)
	if err != nil {
		return nil, err
	}
	params := make([]flow.Params, len(sets))
	seeds := make([]int64, len(sets))
	for i, s := range sets {
		params[i] = recipe.ApplySet(flow.DefaultParams(), s)
		seeds[i] = seedBase + int64(i)*101
	}
	results, err := runner.RunMany(params, seeds, 0)
	if err != nil {
		return nil, err
	}
	out := make([]EvalPoint, 0, len(sets))
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("experiments: %s candidate %d: %w", designName, i, r.Err)
		}
		out = append(out, EvalPoint{Set: sets[i], Metrics: *r.Metrics, QoR: qor.Score(*r.Metrics, stats, e.Data.Intention)})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Table IV

// Table4Row is one design's zero-shot evaluation (a row of Table IV).
type Table4Row struct {
	Design                                     string
	BestKnownTNS, BestKnownPower, BestKnownQoR float64
	RecTNS, RecPower, RecQoR                   float64
	WinPct                                     float64
}

// Table4Result is the full cross-validated zero-shot evaluation.
type Table4Result struct {
	Rows []Table4Row
	// RecPoints holds all K evaluated recommendations per design (the red
	// points of Fig. 5).
	RecPoints map[string][]EvalPoint
	// Models maps each design to the fold model for which it was unseen.
	Models map[string]*core.Model
}

// RunTable4 performs the paper's zero-shot evaluation: k-fold CV over the
// designs, per-fold offline alignment, beam-search top-K recommendation for
// each held-out design, flow evaluation of every recommendation, and the
// best-known-vs-recommended comparison with Win%.
func (e *Env) RunTable4() (*Table4Result, error) {
	folds := e.Data.Folds(e.Cfg.Folds, e.Cfg.Seed)
	res := &Table4Result{
		RecPoints: map[string][]EvalPoint{},
		Models:    map[string]*core.Model{},
	}
	for fi, holdout := range folds {
		train, _ := e.Data.Split(holdout)
		cfg := core.DefaultConfig()
		cfg.Seed = e.Cfg.Seed + int64(fi)
		model, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		topt := e.Cfg.Train
		topt.Seed = e.Cfg.Seed + int64(fi)*31
		if _, err := model.AlignmentTrain(train, topt); err != nil {
			return nil, fmt.Errorf("experiments: fold %d training: %w", fi, err)
		}
		// Beam search is independent per held-out design; fan the fold's
		// queries across the worker pool in one batch.
		ivs := make([][]float64, len(holdout))
		for di, design := range holdout {
			iv, ok := e.Data.InsightOf(design)
			if !ok {
				return nil, fmt.Errorf("experiments: no insight for %s", design)
			}
			ivs[di] = iv.Slice()
		}
		candsPerDesign := model.BeamSearchBatch(ivs, e.Cfg.BeamK)
		for di, design := range holdout {
			cands := candsPerDesign[di]
			sets := make([]recipe.Set, len(cands))
			for i, c := range cands {
				sets[i] = c.Set
			}
			evals, err := e.EvaluateSets(design, sets, e.Cfg.Seed*1009+int64(fi))
			if err != nil {
				return nil, err
			}
			res.RecPoints[design] = evals
			res.Models[design] = model

			bestRec := evals[0]
			for _, ev := range evals[1:] {
				if ev.QoR > bestRec.QoR {
					bestRec = ev
				}
			}
			bestKnown, _ := e.Data.BestKnown(design)
			known := e.Data.PointsOf(design)
			wins := 0
			for _, kp := range known {
				if bestRec.QoR > kp.QoR {
					wins++
				}
			}
			res.Rows = append(res.Rows, Table4Row{
				Design:         design,
				BestKnownTNS:   bestKnown.Metrics.TNSns,
				BestKnownPower: bestKnown.Metrics.PowerMW,
				BestKnownQoR:   bestKnown.QoR,
				RecTNS:         bestRec.Metrics.TNSns,
				RecPower:       bestRec.Metrics.PowerMW,
				RecQoR:         bestRec.QoR,
				WinPct:         100 * float64(wins) / float64(len(known)),
			})
		}
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		return designOrder(res.Rows[i].Design) < designOrder(res.Rows[j].Design)
	})
	return res, nil
}

func designOrder(name string) int {
	n := 0
	fmt.Sscanf(name, "D%d", &n)
	return n
}

// Format renders the Table IV text.
func (t *Table4Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table IV: zero-shot offline alignment on unseen designs (cross-validation)\n")
	fmt.Fprintf(&b, "%-7s | %12s %12s %9s | %12s %12s %9s %7s\n",
		"Design", "BK TNS(ns)", "BK Pwr(mW)", "BK QoR", "Rec TNS(ns)", "Rec Pwr(mW)", "Rec QoR", "Win%")
	fmt.Fprintln(&b, strings.Repeat("-", 96))
	var sumWin, sumBK, sumRec float64
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-7s | %12.4g %12.4g %9.2f | %12.4g %12.4g %9.2f %7.1f\n",
			r.Design, r.BestKnownTNS, r.BestKnownPower, r.BestKnownQoR,
			r.RecTNS, r.RecPower, r.RecQoR, r.WinPct)
		sumWin += r.WinPct
		sumBK += r.BestKnownQoR
		sumRec += r.RecQoR
	}
	n := float64(len(t.Rows))
	fmt.Fprintln(&b, strings.Repeat("-", 96))
	fmt.Fprintf(&b, "%-7s | %12s %12s %9.2f | %12s %12s %9.2f %7.1f\n",
		"mean", "", "", sumBK/n, "", "", sumRec/n, sumWin/n)
	return b.String()
}

// MeanWinPct returns the average Win% over all designs.
func (t *Table4Result) MeanWinPct() float64 {
	s := 0.0
	for _, r := range t.Rows {
		s += r.WinPct
	}
	return s / float64(len(t.Rows))
}

// ---------------------------------------------------------------------------
// Figure 5

// Fig5Series is the scatter data for one design: the known recipe-set cloud
// (blue in the paper) and the zero-shot recommendations (red).
type Fig5Series struct {
	Design   string
	KnownTNS []float64
	KnownPwr []float64
	RecTNS   []float64
	RecPwr   []float64
}

// RunFig5 extracts the power-timing scatter for the paper's four showcase
// designs from a completed Table IV run.
func (e *Env) RunFig5(t4 *Table4Result, designs []string) ([]Fig5Series, error) {
	if len(designs) == 0 {
		designs = []string{"D4", "D6", "D11", "D14"}
	}
	var out []Fig5Series
	for _, d := range designs {
		recs, ok := t4.RecPoints[d]
		if !ok {
			return nil, fmt.Errorf("experiments: no Table IV recommendations for %s", d)
		}
		s := Fig5Series{Design: d}
		for _, kp := range e.Data.PointsOf(d) {
			s.KnownTNS = append(s.KnownTNS, kp.Metrics.TNSns)
			s.KnownPwr = append(s.KnownPwr, kp.Metrics.PowerMW)
		}
		for _, rp := range recs {
			s.RecTNS = append(s.RecTNS, rp.Metrics.TNSns)
			s.RecPwr = append(s.RecPwr, rp.Metrics.PowerMW)
		}
		out = append(out, s)
	}
	return out, nil
}

// Format renders Fig. 5 as per-design CSV blocks (series: known, rec).
func FormatFig5(series []Fig5Series) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 5: QoR scatter of zero-shot recommendations (rec) vs known recipe sets (known)")
	for _, s := range series {
		fmt.Fprintf(&b, "# design %s\n", s.Design)
		fmt.Fprintln(&b, "series,tns_ns,power_mw")
		for i := range s.KnownTNS {
			fmt.Fprintf(&b, "known,%.6g,%.6g\n", s.KnownTNS[i], s.KnownPwr[i])
		}
		for i := range s.RecTNS {
			fmt.Fprintf(&b, "rec,%.6g,%.6g\n", s.RecTNS[i], s.RecPwr[i])
		}
	}
	return b.String()
}

// ParetoStats reports how the recommendations sit relative to the known
// archive's Pareto front under the intention's metrics.
type ParetoStats struct {
	// OnOrBeyondFront counts recommendations dominated by no known point.
	OnOrBeyondFront int
	// Total is the number of recommendations.
	Total int
	// KnownFrontSize is the size of the archive's own Pareto front.
	KnownFrontSize int
}

// ParetoOf computes Pareto statistics for one Fig. 5 series.
func (e *Env) ParetoOf(s Fig5Series, recs []EvalPoint) ParetoStats {
	known := e.Data.PointsOf(s.Design)
	ms := make([]flow.Metrics, len(known))
	for i, kp := range known {
		ms[i] = kp.Metrics
	}
	st := ParetoStats{Total: len(recs)}
	st.KnownFrontSize = len(qor.ParetoFront(ms, e.Data.Intention))
	for _, r := range recs {
		if qor.DominatedBy(r.Metrics, ms, e.Data.Intention) == 0 {
			st.OnOrBeyondFront++
		}
	}
	return st
}

// LowerLeftScore reports how much better-positioned the recommendation
// centroid is relative to the known centroid: positive values mean the
// recommendations sit toward the lower-left (less power, less TNS) — the
// qualitative claim of Fig. 5.
func (s Fig5Series) LowerLeftScore() float64 {
	mk := centroid(s.KnownTNS, s.KnownPwr)
	mr := centroid(s.RecTNS, s.RecPwr)
	// Normalize by known spread to be scale-free.
	sdT := stddev(s.KnownTNS)
	sdP := stddev(s.KnownPwr)
	score := 0.0
	if sdT > 0 {
		score += (mk[0] - mr[0]) / sdT
	}
	if sdP > 0 {
		score += (mk[1] - mr[1]) / sdP
	}
	return score
}

func centroid(xs, ys []float64) [2]float64 {
	var c [2]float64
	for i := range xs {
		c[0] += xs[i]
		c[1] += ys[i]
	}
	n := float64(len(xs))
	if n > 0 {
		c[0] /= n
		c[1] /= n
	}
	return c
}

func stddev(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mu := 0.0
	for _, x := range xs {
		mu += x
	}
	mu /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - mu) * (x - mu)
	}
	v /= float64(len(xs))
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// ---------------------------------------------------------------------------
// Figures 6 and 7

// OnlineResult is an online fine-tuning trajectory for one design.
type OnlineResult struct {
	Design  string
	Records []online.IterationRecord
	// BestKnownQoR is the archive's best score, the bar online tuning
	// should cross (Fig. 7's claim).
	BestKnownQoR float64
}

// RunOnline fine-tunes the fold model of one design (zero-shot start) for
// the configured number of iterations — the experiment behind Fig. 6 (D10
// and D6 trajectories) and Fig. 7 (the progressive scatter).
func (e *Env) RunOnline(t4 *Table4Result, design string) (*OnlineResult, error) {
	model, ok := t4.Models[design]
	if !ok {
		return nil, fmt.Errorf("experiments: no fold model for %s", design)
	}
	iv, _ := e.Data.InsightOf(design)
	stats, err := e.Data.StatsOf(design)
	if err != nil {
		return nil, err
	}
	runner := flow.NewRunner(e.Designs[design])
	opt := e.Cfg.OnlineOptions
	opt.Seed = e.Cfg.Seed*131 + int64(designOrder(design))
	tuner, err := online.NewTuner(model, runner, iv, stats, e.Data.Intention, opt)
	if err != nil {
		return nil, err
	}
	// The zero-shot recommendations are already evaluated; seed them so the
	// tuner explores beyond them (the paper starts online tuning from the
	// offline model's proposals).
	var seedEvals []online.Evaluation
	for _, ev := range t4.RecPoints[design] {
		lp := model.SeqLogProb(iv.Slice(), ev.Set.Bits())
		seedEvals = append(seedEvals, online.Evaluation{
			Set: ev.Set, Metrics: ev.Metrics, QoR: ev.QoR, LogProbOld: lp, Iteration: -1,
		})
	}
	tuner.SeedHistory(seedEvals)
	recs, err := tuner.Run(e.Cfg.OnlineIterations)
	if err != nil {
		return nil, err
	}
	best, _ := e.Data.BestKnown(design)
	return &OnlineResult{Design: design, Records: recs, BestKnownQoR: best.QoR}, nil
}

// FormatFig6 renders the per-iteration series of Fig. 6: total power and
// TNS of the best recipe so far (lower-better) and QoR score (higher-better).
func FormatFig6(results []*OnlineResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 6: online fine-tuning trajectory per iteration")
	for _, r := range results {
		fmt.Fprintf(&b, "# design %s (best known QoR %.3f)\n", r.Design, r.BestKnownQoR)
		fmt.Fprintln(&b, "iter,power_mw_best,tns_ns_best,qor_best,qor_avg_topk")
		for _, rec := range r.Records {
			fmt.Fprintf(&b, "%d,%.6g,%.6g,%.4f,%.4f\n",
				rec.Iteration, rec.PowerOfBest, rec.TNSOfBest, rec.BestQoR, rec.AvgTopK)
		}
	}
	return b.String()
}

// FormatFig7 renders the progressive scatter of Fig. 7: every online
// evaluation tagged by iteration, against the known recipe-set cloud.
func (e *Env) FormatFig7(r *OnlineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 7: progressive QoR scatter for %s during online fine-tuning\n", r.Design)
	fmt.Fprintln(&b, "series,iter,tns_ns,power_mw,qor")
	for _, kp := range e.Data.PointsOf(r.Design) {
		fmt.Fprintf(&b, "known,-1,%.6g,%.6g,%.4f\n", kp.Metrics.TNSns, kp.Metrics.PowerMW, kp.QoR)
	}
	for _, rec := range r.Records {
		for _, ev := range rec.Evaluations {
			fmt.Fprintf(&b, "online,%d,%.6g,%.6g,%.4f\n",
				rec.Iteration, ev.Metrics.TNSns, ev.Metrics.PowerMW, ev.QoR)
		}
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Baseline comparison

// BaselineTrajectory is a best-so-far QoR trajectory under a budget.
type BaselineTrajectory struct {
	Method    string
	BestSoFar []float64 // per evaluation
}

// RunBaselines compares random/BO/ACO against the InsightAlign zero-shot
// recommendation on one design under an equal evaluation budget.
func (e *Env) RunBaselines(t4 *Table4Result, design string, budget int, methods []string) ([]BaselineTrajectory, float64, error) {
	if len(methods) == 0 {
		methods = []string{"random", "bayesopt", "aco"}
	}
	stats, err := e.Data.StatsOf(design)
	if err != nil {
		return nil, 0, err
	}
	runner := flow.NewRunner(e.Designs[design])
	rng := rand.New(rand.NewSource(e.Cfg.Seed * 17))

	var out []BaselineTrajectory
	for _, name := range methods {
		opt, err := baseline.NewByName(name, e.Cfg.Seed+int64(len(name)), e.Data.Built.MaxRecipesPerSet)
		if err != nil {
			return nil, 0, err
		}
		tr := BaselineTrajectory{Method: name}
		best := -1e18
		for len(tr.BestSoFar) < budget {
			for _, s := range opt.Propose(5) {
				if len(tr.BestSoFar) >= budget {
					break
				}
				m, _, err := runner.Run(recipe.ApplySet(flow.DefaultParams(), s), rng.Int63())
				if err != nil {
					return nil, 0, err
				}
				q := qor.Score(*m, stats, e.Data.Intention)
				opt.Observe(s, q)
				if q > best {
					best = q
				}
				tr.BestSoFar = append(tr.BestSoFar, best)
			}
		}
		out = append(out, tr)
	}
	// InsightAlign's zero-shot best-of-K (uses only K evaluations).
	iaBest := -1e18
	for _, ev := range t4.RecPoints[design] {
		if ev.QoR > iaBest {
			iaBest = ev.QoR
		}
	}
	return out, iaBest, nil
}

// FormatBaselines renders the budget comparison.
func FormatBaselines(design string, trs []BaselineTrajectory, iaBest float64, beamK int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Baseline comparison on %s (best-so-far QoR by evaluation budget)\n", design)
	fmt.Fprintf(&b, "InsightAlign zero-shot best-of-%d (uses %d evaluations): %.3f\n", beamK, beamK, iaBest)
	fmt.Fprint(&b, "evals")
	for _, tr := range trs {
		fmt.Fprintf(&b, ",%s", tr.Method)
	}
	fmt.Fprintln(&b)
	if len(trs) == 0 {
		return b.String()
	}
	for i := range trs[0].BestSoFar {
		fmt.Fprintf(&b, "%d", i+1)
		for _, tr := range trs {
			fmt.Fprintf(&b, ",%.3f", tr.BestSoFar[i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
