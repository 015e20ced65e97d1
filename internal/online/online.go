// Package online implements the online fine-tuning phase of the paper
// (Fig. 1b, Sec. III.G): starting from the offline-aligned policy, the
// tuner repeatedly proposes K=5 recipe sets, executes the physical design
// flow on them, and updates the model from the observed QoR with a mix of
// margin-based DPO over the accumulated archive and a clipped PPO policy
// gradient against the proposal-time policy snapshot.
package online

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/flow"
	"insightalign/internal/insight"
	"insightalign/internal/nn"
	"insightalign/internal/obs"
	"insightalign/internal/qor"
	"insightalign/internal/recipe"
	"insightalign/internal/retrieve"
)

// Options configure online fine-tuning.
type Options struct {
	// K is the number of recipe sets proposed per iteration (paper: 5).
	K int
	// Lambda is the MDPO margin scale (paper: 2).
	Lambda float64
	// LR is the Adam learning rate for online updates.
	LR float64
	// PPOEpsilon is the clipped-surrogate range (standard 0.2).
	PPOEpsilon float64
	// PPOWeight scales the PPO loss relative to MDPO.
	PPOWeight float64
	// ExploreFrac is the fraction of proposals drawn by temperature
	// sampling instead of beam search.
	ExploreFrac float64
	// ExploreTau is the sampling temperature.
	ExploreTau float64
	// MDPOPairsPerIter bounds pairwise updates per iteration.
	MDPOPairsPerIter int
	// RefreshInsights accumulates insight vectors from every online run
	// and conditions the policy on their running mean — the paper's
	// "progressively generalized view of the design" (Sec. III.B).
	RefreshInsights bool
	// Seed drives exploration and flow noise.
	Seed int64
	// BatchPairs, if positive, batches each iteration's MDPO pairs into
	// minibatch Adam steps sharded across the core TrainEngine's workers;
	// 0 keeps per-pair updates. The PPO term is at most K losses per
	// iteration and stays one step per evaluation either way.
	BatchPairs int
	// Workers sizes the worker pool used when BatchPairs > 0 (0 = NumCPU).
	// Updates are bit-identical at any worker count.
	Workers int
	// Journal, if non-nil, receives one "online_iteration" record per
	// iteration (chosen sets, QoR, best-so-far) plus checkpoint events —
	// enough to replot the Fig. 6 trajectory from the file alone.
	Journal *obs.Journal
	// FlowTimeout bounds each flow run attempt; with FlowRetries it
	// wraps the runner in a flow.Exec so hung or flaky tool invocations
	// cost a bounded slice of the iteration instead of stalling it. 0
	// means no per-run deadline.
	FlowTimeout time.Duration
	// FlowRetries re-attempts timed-out / transient flow failures per
	// proposal before the proposal is dropped from the iteration.
	FlowRetries int
	// FlowBackoff overrides the retry backoff base (default 10ms).
	FlowBackoff time.Duration
	// Retrieve, if non-nil, warm-starts the campaign from the retrieval
	// store (CROP-style): the first iteration proposes neighbors' best
	// recipe sets directly, every beam exploitation runs seeded with them
	// (core.Decoder.BeamSearchSeeded), and each successful evaluation
	// feeds back into the store so concurrent and future campaigns
	// benefit. A nil store keeps proposals bit-identical to the cold
	// tuner.
	Retrieve *retrieve.Store
	// WarmStartK bounds how many neighbor sets seed each proposal round
	// (0 = K).
	WarmStartK int
	// ModelVersion stamps outcomes fed into Retrieve and the journal, so
	// serve-side invalidation can tell score-proxy entries from
	// flow-measured ones. Optional.
	ModelVersion string
	// Design names the design this campaign tunes for. It rides along in
	// checkpoint journal metadata (CheckpointEvent) so the promotion
	// pipeline can tell per-design specialists apart when merging them
	// back into the base model. Optional.
	Design string
}

// DefaultOptions returns the paper's setup (K = 5) with practical
// optimization defaults.
func DefaultOptions() Options {
	return Options{
		K:                5,
		Lambda:           2,
		LR:               1e-4,
		PPOEpsilon:       0.2,
		PPOWeight:        0.5,
		ExploreFrac:      0.4,
		ExploreTau:       1.5,
		MDPOPairsPerIter: 200,
		RefreshInsights:  true,
		Seed:             1,
	}
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.K < 1 {
		return fmt.Errorf("online: K %d must be >= 1", o.K)
	}
	if o.Lambda <= 0 {
		return fmt.Errorf("online: Lambda must be positive")
	}
	if o.PPOEpsilon <= 0 || o.PPOEpsilon >= 1 {
		return fmt.Errorf("online: PPOEpsilon %g out of (0,1)", o.PPOEpsilon)
	}
	if o.ExploreFrac < 0 || o.ExploreFrac > 1 {
		return fmt.Errorf("online: ExploreFrac %g out of [0,1]", o.ExploreFrac)
	}
	return nil
}

// Evaluation is one executed proposal.
type Evaluation struct {
	Set     recipe.Set
	Metrics flow.Metrics
	QoR     float64
	// LogProbOld is the sequence log-likelihood at proposal time (the PPO
	// behaviour policy).
	LogProbOld float64
	Iteration  int
}

// IterationRecord summarizes one closed-loop iteration (the per-iteration
// series plotted in Fig. 6 of the paper).
type IterationRecord struct {
	Iteration int
	// Evaluations are the K new flow results of this iteration.
	Evaluations []Evaluation
	// BestQoR is the best score seen so far, PowerOfBest/TNSOfBest its
	// metrics.
	BestQoR     float64
	PowerOfBest float64
	TNSOfBest   float64
	// AvgTopK is the mean QoR of the top-K recipes encountered so far
	// (the series of Fig. 6).
	AvgTopK float64
	// MeanLoss is the mean combined update loss.
	MeanLoss float64
	// Failures counts proposals whose flow run failed this iteration; the
	// iteration proceeded in degraded mode over the surviving subset.
	Failures int
	// Recovered marks that this iteration's policy update produced
	// non-finite parameters and was rolled back to the pre-update state.
	Recovered bool
}

// Degraded reports whether this iteration lost at least one proposal.
func (r IterationRecord) Degraded() bool { return r.Failures > 0 }

// IterationJournalEntry is the "data" payload of an "online_iteration"
// journal record: the iteration's chosen recipe sets (40-bit strings,
// aligned with QoRs) and the trajectory series of Fig. 6.
type IterationJournalEntry struct {
	Iteration int       `json:"iteration"`
	Sets      []string  `json:"sets"`
	QoRs      []float64 `json:"qors"`
	BestQoR   float64   `json:"best_qor"`
	AvgTopK   float64   `json:"avg_top_k"`
	MeanLoss  float64   `json:"mean_loss"`
	Failures  int       `json:"failures,omitempty"`
	Recovered bool      `json:"recovered,omitempty"`
	// Insight is the proposal-time insight vector, the retrieval key that
	// lets retrieve.ReplayEntries rebuild the outcome store from the
	// journal alone. ModelVersion stamps the outcomes for version-scoped
	// invalidation.
	Insight      []float64 `json:"insight,omitempty"`
	ModelVersion string    `json:"model_version,omitempty"`
}

// FailureJournalEntry is the "data" payload of a "flow_run_failed" journal
// record: one dropped proposal of a degraded iteration.
type FailureJournalEntry struct {
	Iteration int    `json:"iteration"`
	Set       string `json:"set"`
	Kind      string `json:"kind"`
	Error     string `json:"error"`
}

// Tuner runs online fine-tuning for one specific design.
type Tuner struct {
	model     *core.Model
	runner    *flow.Runner
	insight   insight.Vector
	intention qor.Intention
	stats     qor.Stats
	opt       Options

	rng     *rand.Rand
	adam    *nn.Adam
	engine  gradSource    // a *core.TrainEngine, built on the first policy update
	exec    flow.Executor // runner, or flow.Exec when deadlines/retries are on
	history []Evaluation
	records []IterationRecord
	seen    map[recipe.Set]bool
	acc     insight.Accumulator
	// lastGood and lastGoodOpt snapshot the parameters and the Adam
	// moments before each policy update so a poisoned (non-finite) update
	// can be rolled back. Both must roll back together: restoring the
	// parameters alone would leave NaN moments re-poisoning every
	// subsequent optimizer step.
	lastGood    [][]float64
	lastGoodOpt nn.AdamState
}

// gradSource leaves the mean gradient of a minibatch of loss terms in
// the model's Grad buffers and returns the terms' loss values; the tuner's
// is a *core.TrainEngine.
type gradSource interface {
	Accumulate(ctx context.Context, terms []core.Term) []float64
}

// NewTuner builds a tuner on top of an offline-aligned model. stats must be
// the per-design QoR normalization statistics from the offline archive so
// online scores stay on the archive scale.
func NewTuner(model *core.Model, runner *flow.Runner, iv insight.Vector, st qor.Stats, in qor.Intention, opt Options) (*Tuner, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	adam := nn.NewAdam(model.Params(), opt.LR)
	adam.ClipNorm = 5
	t := &Tuner{
		model:     model,
		runner:    runner,
		insight:   iv,
		intention: in,
		stats:     st,
		opt:       opt,
		rng:       rand.New(rand.NewSource(opt.Seed)),
		adam:      adam,
		seen:      map[recipe.Set]bool{},
	}
	t.exec = runner
	if opt.FlowTimeout > 0 || opt.FlowRetries > 0 {
		eo := flow.DefaultExecOptions()
		eo.Timeout = opt.FlowTimeout
		eo.Retries = opt.FlowRetries
		if opt.FlowBackoff > 0 {
			eo.BackoffBase = opt.FlowBackoff
		}
		eo.Seed = opt.Seed
		t.exec = flow.NewExec(runner, eo)
	}
	// The probe-run insight seeds the accumulated view.
	t.acc.Add(iv)
	return t, nil
}

// Insight returns the tuner's current (possibly accumulated) insight view.
func (t *Tuner) Insight() insight.Vector { return t.insight }

// History returns all evaluations so far.
func (t *Tuner) History() []Evaluation { return t.history }

// Records returns all iteration records so far.
func (t *Tuner) Records() []IterationRecord { return t.records }

// Seed the archive with known evaluations (e.g. the design's offline
// datapoints) without spending flow runs.
func (t *Tuner) SeedHistory(evals []Evaluation) {
	for _, e := range evals {
		t.history = append(t.history, e)
		t.seen[e.Set] = true
	}
}

// propose selects the next K recipe sets: beam search exploitation plus
// temperature-sampled exploration, skipping sets already evaluated. One
// incremental decoding session serves both: the insight memory and the
// cross-attention K/V are projected once per iteration and shared by the
// beam search and every exploration sample.
//
// With a retrieval store configured, proposals warm-start from similar
// designs: the first iteration spends its exploitation slots on the
// neighbors' best sets directly (their QoR on a similar design is a
// stronger signal than a cold model's score), and every iteration's beam
// search carries the unseen neighbor sets as forced seed lanes. With a
// nil store — or an empty one returning no seeds — the proposal stream
// is unchanged bit for bit.
func (t *Tuner) propose() []core.Candidate {
	iv := t.insight.Slice()
	nExplore := int(float64(t.opt.K)*t.opt.ExploreFrac + 0.5)
	nBeam := t.opt.K - nExplore

	// Retrieval seeds are a warm START, not a standing bias: they apply
	// only while the tuner has no evaluations of its own. Once records
	// exist, the tuner's own model and history carry more signal about
	// *this* design than a neighbor's leftover mid-tier sets, and
	// re-seeding every iteration was measured to crowd model-guided
	// exploration out of the proposal list (DESIGN.md §14).
	var seeds []recipe.Set
	if t.opt.Retrieve != nil && len(t.records) == 0 {
		warmK := t.opt.WarmStartK
		if warmK <= 0 {
			warmK = t.opt.K
		}
		for _, s := range t.opt.Retrieve.BestSets(iv, warmK+len(t.seen), -1) {
			if !t.seen[s] {
				seeds = append(seeds, s)
			}
			if len(seeds) == warmK {
				break
			}
		}
	}

	dec := t.model.NewDecoder(iv)
	var out []core.Candidate
	if len(t.records) == 0 {
		for _, s := range seeds {
			if len(out) >= nBeam {
				break
			}
			if containsSet(out, s) {
				continue
			}
			bits := s.Bits()
			out = append(out, core.Candidate{Set: s, LogProb: t.model.SeqLogProb(iv, bits), Sequence: bits})
		}
	}
	for _, c := range dec.BeamSearchSeeded(t.opt.K*2, seeds) {
		if len(out) >= nBeam {
			break
		}
		if !t.seen[c.Set] && !containsSet(out, c.Set) {
			out = append(out, c)
		}
	}
	for tries := 0; len(out) < t.opt.K && tries < 200; tries++ {
		c := dec.Sample(t.opt.ExploreTau, t.rng)
		if t.seen[c.Set] || containsSet(out, c.Set) {
			continue
		}
		out = append(out, c)
	}
	// Fallback: random sets if the policy is too concentrated.
	for len(out) < t.opt.K {
		var s recipe.Set
		for i := range s {
			s[i] = t.rng.Intn(2) == 1
		}
		if t.seen[s] || containsSet(out, s) {
			continue
		}
		bits := s.Bits()
		out = append(out, core.Candidate{Set: s, LogProb: t.model.SeqLogProb(iv, bits), Sequence: bits})
	}
	return out
}

// Iterate runs one closed-loop iteration: propose K → run the flow → score
// → update the policy with MDPO + PPO. Iterations are fault tolerant:
// each of the K proposals is evaluated independently through the tuner's
// executor (a flow.Exec with deadlines and retries when Options enables
// them); failed runs are journaled and dropped, MDPO preferences are
// re-paired over the surviving subset, and a policy update that produces
// non-finite parameters is rolled back to the pre-update snapshot. Only
// journal I/O errors abort an iteration.
func (t *Tuner) Iterate() (IterationRecord, error) {
	onlineMetrics()
	iter := len(t.records)
	ctx, iterSpan := obs.StartSpan(context.Background(), "online_iteration")
	iterSpan.SetAttr("iteration", strconv.Itoa(iter))
	defer iterSpan.End()

	// The proposal-time insight is the retrieval key for this iteration's
	// outcomes — captured before the post-update refresh mutates t.insight.
	proposalIV := t.insight.Slice()
	_, propSpan := obs.StartSpan(ctx, "propose")
	proposals := t.propose()
	propSpan.End()

	rec := IterationRecord{Iteration: iter}
	for _, c := range proposals {
		params := recipe.ApplySet(flow.DefaultParams(), c.Set)
		runSeed := t.rng.Int63()
		_, flowSpan := obs.StartSpan(ctx, "flow_run")
		m, tr, err := t.exec.RunContext(ctx, params, runSeed)
		flowSpan.End()
		if err == nil {
			// Degenerate stats can still score garbage QoR from finite
			// metrics; a non-finite score is a failed evaluation too.
			if q := qor.Score(*m, t.stats, t.intention); !math.IsNaN(q) && !math.IsInf(q, 0) {
				onlineFlowRuns.Inc()
				if t.opt.RefreshInsights {
					t.acc.Add(insight.Extract(m, tr))
				}
				e := Evaluation{
					Set:        c.Set,
					Metrics:    *m,
					QoR:        q,
					LogProbOld: c.LogProb,
					Iteration:  iter,
				}
				t.history = append(t.history, e)
				t.seen[e.Set] = true
				rec.Evaluations = append(rec.Evaluations, e)
				if t.opt.Retrieve != nil {
					// Live feed: this outcome becomes retrievable by similar
					// designs (and by this campaign's own later iterations)
					// immediately, not only after a journal replay.
					t.opt.Retrieve.Add(proposalIV, e.Set, e.QoR, t.opt.ModelVersion)
				}
				continue
			}
			err = fmt.Errorf("online: %w: non-finite QoR score", flow.ErrCorruptQoR)
		}
		// Degraded mode: drop the proposal, keep the iteration. The set
		// stays un-seen so a later iteration may propose it again.
		rec.Failures++
		onlineFlowFailures.Inc()
		if jerr := t.opt.Journal.Record("flow_run_failed", FailureJournalEntry{
			Iteration: iter,
			Set:       c.Set.String(),
			Kind:      flow.Classify(err).String(),
			Error:     err.Error(),
		}); jerr != nil {
			return rec, fmt.Errorf("online: journal flow failure: %w", jerr)
		}
	}
	if rec.Degraded() {
		onlineDegradedIters.Inc()
	}

	if len(rec.Evaluations) > 0 {
		// Snapshot before updating so a poisoned update (NaN/Inf loss or
		// parameters) recovers to the last good policy instead of
		// corrupting every subsequent proposal.
		t.snapshotState()
		updCtx, updSpan := obs.StartSpan(ctx, "policy_update")
		rec.MeanLoss = t.update(updCtx, rec.Evaluations)
		updSpan.End()
		if !finite(rec.MeanLoss) || !t.paramsFinite() {
			t.restoreState()
			rec.Recovered = true
			rec.MeanLoss = 0
			onlineRecoveries.Inc()
			if jerr := t.opt.Journal.Record("online_recovered", map[string]int{"iteration": iter}); jerr != nil {
				return rec, fmt.Errorf("online: journal recovery: %w", jerr)
			}
		}
		if t.opt.RefreshInsights {
			// Condition subsequent proposals and updates on the
			// accumulated (averaged) insight view.
			t.insight = t.acc.Mean()
		}
	}

	// Trajectory bookkeeping (history may still be empty if every
	// proposal of every iteration so far failed).
	if len(t.history) > 0 {
		best := t.history[0]
		for _, e := range t.history {
			if e.QoR > best.QoR {
				best = e
			}
		}
		rec.BestQoR = best.QoR
		rec.PowerOfBest = best.Metrics.PowerMW
		rec.TNSOfBest = best.Metrics.TNSns
		rec.AvgTopK = t.avgTopK(t.opt.K)
	}
	t.records = append(t.records, rec)

	iterBest := math.Inf(-1)
	entry := IterationJournalEntry{
		Iteration:    iter,
		BestQoR:      rec.BestQoR,
		AvgTopK:      rec.AvgTopK,
		MeanLoss:     rec.MeanLoss,
		Failures:     rec.Failures,
		Recovered:    rec.Recovered,
		Insight:      proposalIV,
		ModelVersion: t.opt.ModelVersion,
	}
	for _, e := range rec.Evaluations {
		entry.Sets = append(entry.Sets, e.Set.String())
		entry.QoRs = append(entry.QoRs, e.QoR)
		if e.QoR > iterBest {
			iterBest = e.QoR
		}
	}
	onlineIters.Inc()
	if len(rec.Evaluations) > 0 {
		onlineIterQoR.Set(iterBest)
	}
	// Publish best-QoR only once an evaluation exists: with an all-failed
	// history rec.BestQoR is still its zero value, and 0 on the gauge
	// would be indistinguishable from a genuine QoR of 0.
	if len(t.history) > 0 {
		onlineBestQoR.Set(rec.BestQoR)
	}
	onlineMeanLoss.Set(rec.MeanLoss)
	if err := t.opt.Journal.Record("online_iteration", entry); err != nil {
		return rec, fmt.Errorf("online: journal iteration %d: %w", iter, err)
	}
	return rec, nil
}

// snapshotState copies the model parameters and the optimizer's Adam
// moments/step counter into the tuner's last-good buffers (allocated
// once and reused).
func (t *Tuner) snapshotState() {
	ps := t.model.Params()
	if t.lastGood == nil {
		t.lastGood = make([][]float64, len(ps))
		for i, p := range ps {
			t.lastGood[i] = make([]float64, len(p.Data))
		}
	}
	for i, p := range ps {
		copy(t.lastGood[i], p.Data)
	}
	t.adam.Snapshot(&t.lastGoodOpt)
}

// restoreState rolls the model and the optimizer back to the last
// snapshot. Restoring the optimizer matters: a non-finite gradient with
// a finite loss reaches adam.Step and poisons the persistent m/v
// moments, which would otherwise rewrite NaN parameters on every later
// step and silently halt learning behind repeated recoveries.
func (t *Tuner) restoreState() {
	for i, p := range t.model.Params() {
		copy(p.Data, t.lastGood[i])
	}
	t.adam.Restore(&t.lastGoodOpt)
}

// paramsFinite reports whether every model parameter is a finite number.
func (t *Tuner) paramsFinite() bool {
	for _, p := range t.model.Params() {
		for _, v := range p.Data {
			if !finite(v) {
				return false
			}
		}
	}
	return true
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Run executes n iterations and returns the full trajectory.
func (t *Tuner) Run(n int) ([]IterationRecord, error) {
	for i := 0; i < n; i++ {
		if _, err := t.Iterate(); err != nil {
			return t.records, err
		}
	}
	return t.records, nil
}

// mdpoPair is one selected (winner, loser) comparison for an iteration's
// MDPO update.
type mdpoPair struct {
	winBits, losBits []int
	gap              float64
}

// selectPairs enumerates this iteration's (new × archive) MDPO pairs with
// the same ordering and caps as the historical per-pair loop.
func (t *Tuner) selectPairs(newEvals []Evaluation) []mdpoPair {
	var sel []mdpoPair
	for _, a := range newEvals {
		for _, b := range t.history {
			if len(sel) >= t.opt.MDPOPairsPerIter {
				return sel
			}
			if a.Set == b.Set {
				continue
			}
			gap := a.QoR - b.QoR
			w, l := a, b
			if gap < 0 {
				w, l, gap = b, a, -gap
			}
			if gap < 0.05 {
				continue
			}
			sel = append(sel, mdpoPair{winBits: w.Set.Bits(), losBits: l.Set.Bits(), gap: gap})
		}
	}
	return sel
}

// update applies the MDPO + PPO parameter updates for this iteration's
// evaluations and returns the mean loss. Both run on the core TrainEngine:
// MDPO pairs in minibatches of BatchPairs (one pair per Adam step when 0),
// PPO one evaluation per step. ctx carries the iteration's policy_update
// span for the engine's worker-chunk children of MDPO minibatches.
func (t *Tuner) update(ctx context.Context, newEvals []Evaluation) float64 {
	iv := t.insight.Slice()
	totalLoss, updates := 0.0, 0
	if t.engine == nil {
		t.engine = core.NewTrainEngine(t.model, t.opt.Workers)
	}

	// --- Margin-based DPO over (new × archive) pairs ---
	sel := t.selectPairs(newEvals)
	batch := t.opt.BatchPairs
	if batch <= 0 {
		// Per-pair steps: no chunk span per pair.
		batch, ctx = 1, context.Background()
	}
	terms := make([]core.Term, 0, batch)
	for lo := 0; lo < len(sel); lo += batch {
		terms = terms[:0]
		for _, p := range sel[lo:min(lo+batch, len(sel))] {
			terms = append(terms, core.Term{Insight: iv, Win: p.winBits, Los: p.losBits, Loss: core.MDPOLoss(t.opt.Lambda * p.gap)})
		}
		step := false
		for _, v := range t.engine.Accumulate(ctx, terms) {
			if !finite(v) {
				// Poisoned minibatch: discard the whole accumulated
				// step rather than mix NaN gradients into Adam.
				onlineNonfinite.Inc()
				step = false
				break
			}
			totalLoss += v
			updates++
			if v != 0 {
				step = true
			}
		}
		if step {
			t.adam.Step()
		}
	}

	// --- Clipped PPO on the new evaluations ---
	if t.opt.PPOWeight > 0 {
		baseline := t.baselineQoR()
		for _, e := range newEvals {
			adv := e.QoR - baseline
			if adv == 0 {
				continue
			}
			bits := e.Set.Bits()
			r := math.Exp(t.model.SeqLogProb(iv, bits) + -e.LogProbOld)
			if !finite(r) {
				onlineNonfinite.Inc()
				continue
			}
			clipped := math.Max(1-t.opt.PPOEpsilon, math.Min(1+t.opt.PPOEpsilon, r))
			// Surrogate: min(r·A, clip(r)·A). When the clipped branch is
			// active the gradient is zero — skip the step.
			if r*adv <= clipped*adv+1e-12 {
				terms = append(terms[:0], core.Term{Insight: iv, Win: bits, Loss: core.PPOLoss(e.LogProbOld, -adv*t.opt.PPOWeight)})
				totalLoss += t.engine.Accumulate(context.Background(), terms)[0]
				updates++
				t.adam.Step()
			}
		}
	}
	if updates == 0 {
		return 0
	}
	return totalLoss / float64(updates)
}

// baselineQoR is the running mean archive QoR (the PPO advantage baseline).
func (t *Tuner) baselineQoR() float64 {
	if len(t.history) == 0 {
		return 0
	}
	s := 0.0
	for _, e := range t.history {
		s += e.QoR
	}
	return s / float64(len(t.history))
}

// avgTopK returns the mean QoR of the best k evaluations so far.
func (t *Tuner) avgTopK(k int) float64 {
	if len(t.history) == 0 {
		return 0
	}
	top := make([]float64, 0, len(t.history))
	for _, e := range t.history {
		top = append(top, e.QoR)
	}
	// Partial selection of the k largest.
	for i := 0; i < k && i < len(top); i++ {
		best := i
		for j := i + 1; j < len(top); j++ {
			if top[j] > top[best] {
				best = j
			}
		}
		top[i], top[best] = top[best], top[i]
	}
	if k > len(top) {
		k = len(top)
	}
	s := 0.0
	for i := 0; i < k; i++ {
		s += top[i]
	}
	return s / float64(k)
}

func containsSet(cs []core.Candidate, s recipe.Set) bool {
	for _, c := range cs {
		if c.Set == s {
			return true
		}
	}
	return false
}
