package online

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"insightalign/internal/core"
	"insightalign/internal/flow"
	"insightalign/internal/insight"
	"insightalign/internal/netlist"
	"insightalign/internal/nn"
	"insightalign/internal/qor"
	"insightalign/internal/recipe"
	"insightalign/internal/tensor"
)

// fixture builds a small design, a fresh model, an insight vector from a
// probe run, and per-design QoR stats from a handful of random runs.
func fixture(t *testing.T, seed int64) (*core.Model, *flow.Runner, insight.Vector, qor.Stats) {
	t.Helper()
	nl, err := netlist.Generate(netlist.Spec{
		Name: "o", Seed: seed, Gates: 300, SeqFraction: 0.3, Depth: 9,
		TechName: "N28", ClockTightness: 0.95, HVTFraction: 0.3, LVTFraction: 0.1,
		Locality: 0.4, FanoutSkew: 0.4, ShortPathFraction: 0.2, ActivityMean: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	runner := flow.NewRunner(nl)
	pm, ptr, err := runner.Run(flow.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	iv := insight.Extract(pm, ptr)

	rng := rand.New(rand.NewSource(seed))
	var ms []flow.Metrics
	ms = append(ms, *pm)
	for i := 0; i < 11; i++ {
		s := randomSet(rng)
		m, _, err := runner.Run(recipe.ApplySet(flow.DefaultParams(), s), rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, *m)
	}
	st, err := qor.ComputeStats(ms, qor.Default())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.EmbedDim = 16
	cfg.FFHidden = 24
	cfg.Seed = seed
	model, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model, runner, iv, st
}

func randomSet(rng *rand.Rand) recipe.Set {
	var s recipe.Set
	k := rng.Intn(6)
	for i := 0; i < k; i++ {
		s[rng.Intn(recipe.N)] = true
	}
	return s
}

func fastOptions() Options {
	o := DefaultOptions()
	o.K = 3
	o.MDPOPairsPerIter = 30
	return o
}

func TestIterateBasic(t *testing.T) {
	model, runner, iv, st := fixture(t, 81)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := tuner.Iterate()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Evaluations) != 3 {
		t.Fatalf("got %d evaluations, want 3", len(rec.Evaluations))
	}
	if len(tuner.History()) != 3 {
		t.Fatal("history not recorded")
	}
	for _, e := range rec.Evaluations {
		if e.Metrics.PowerMW <= 0 {
			t.Fatal("evaluation missing metrics")
		}
	}
}

func TestProposalsDistinctAcrossIterations(t *testing.T) {
	model, runner, iv, st := fixture(t, 82)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Run(3); err != nil {
		t.Fatal(err)
	}
	seen := map[recipe.Set]bool{}
	for _, e := range tuner.History() {
		if seen[e.Set] {
			t.Fatalf("recipe set %s evaluated twice", e.Set)
		}
		seen[e.Set] = true
	}
}

func TestBestQoRMonotone(t *testing.T) {
	model, runner, iv, st := fixture(t, 83)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tuner.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].BestQoR < recs[i-1].BestQoR-1e-12 {
			t.Fatalf("best-so-far decreased at iter %d: %g -> %g", i, recs[i-1].BestQoR, recs[i].BestQoR)
		}
		if recs[i].AvgTopK < recs[i-1].AvgTopK-1e-12 {
			t.Fatalf("avg top-K decreased at iter %d", i)
		}
	}
}

func TestSeedHistorySkipsKnownSets(t *testing.T) {
	model, runner, iv, st := fixture(t, 84)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	known := Evaluation{Set: recipe.Set{}, QoR: 0.5}
	tuner.SeedHistory([]Evaluation{known})
	if _, err := tuner.Iterate(); err != nil {
		t.Fatal(err)
	}
	for _, e := range tuner.History()[1:] {
		if e.Set == known.Set {
			t.Fatal("tuner re-evaluated a seeded set")
		}
	}
}

func TestValidation(t *testing.T) {
	model, runner, iv, st := fixture(t, 85)
	bad := fastOptions()
	bad.K = 0
	if _, err := NewTuner(model, runner, iv, st, qor.Default(), bad); err == nil {
		t.Fatal("expected error for K=0")
	}
	bad = fastOptions()
	bad.PPOEpsilon = 2
	if _, err := NewTuner(model, runner, iv, st, qor.Default(), bad); err == nil {
		t.Fatal("expected error for bad epsilon")
	}
	bad = fastOptions()
	bad.Lambda = 0
	if _, err := NewTuner(model, runner, iv, st, qor.Default(), bad); err == nil {
		t.Fatal("expected error for zero lambda")
	}
	if _, err := NewTuner(model, runner, iv, st, qor.Intention{}, fastOptions()); err == nil {
		t.Fatal("expected error for empty intention")
	}
}

func TestOnlineImprovesPolicyRanking(t *testing.T) {
	// After several online iterations, the policy should assign its best
	// discovered set a higher likelihood than its worst.
	model, runner, iv, st := fixture(t, 86)
	opt := fastOptions()
	opt.LR = 3e-3
	opt.MDPOPairsPerIter = 60
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Run(8); err != nil {
		t.Fatal(err)
	}
	hist := tuner.History()
	best, worst := hist[0], hist[0]
	for _, e := range hist {
		if e.QoR > best.QoR {
			best = e
		}
		if e.QoR < worst.QoR {
			worst = e
		}
	}
	if best.QoR-worst.QoR < 0.1 {
		t.Skip("QoR spread too small to test ranking")
	}
	// Evaluate under the tuner's CURRENT conditioning view: with insight
	// refresh on, the policy is trained against the accumulated insight,
	// not the original probe vector.
	_ = iv
	cur := tuner.Insight()
	lpBest := model.LogProb(cur.Slice(), best.Set.Bits()).Item()
	lpWorst := model.LogProb(cur.Slice(), worst.Set.Bits()).Item()
	if lpBest <= lpWorst {
		t.Fatalf("policy does not prefer its best set: best %g vs worst %g", lpBest, lpWorst)
	}
}

func TestRecordsSeries(t *testing.T) {
	model, runner, iv, st := fixture(t, 87)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := tuner.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || len(tuner.Records()) != 3 {
		t.Fatal("wrong record count")
	}
	for i, r := range recs {
		if r.Iteration != i {
			t.Fatalf("iteration numbering wrong: %d at index %d", r.Iteration, i)
		}
		if r.PowerOfBest <= 0 {
			t.Fatal("PowerOfBest missing")
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	model, runner, iv, st := fixture(t, 88)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Run(2); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tuner.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore into a fresh tuner around a fresh (different-seed) model.
	cfg := core.DefaultConfig()
	cfg.EmbedDim = 16
	cfg.FFHidden = 24
	cfg.Seed = 999
	model2, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuner2, err := NewTuner(model2, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if len(tuner2.History()) != len(tuner.History()) {
		t.Fatal("history not restored")
	}
	if len(tuner2.Records()) != len(tuner.Records()) {
		t.Fatal("records not restored")
	}
	// Restored model must equal the saved one.
	lpA := model.LogProb(iv.Slice(), tuner.History()[0].Set.Bits()).Item()
	lpB := model2.LogProb(iv.Slice(), tuner.History()[0].Set.Bits()).Item()
	if lpA != lpB {
		t.Fatalf("model parameters differ after restore: %g vs %g", lpA, lpB)
	}
	// Resumed tuner must not re-evaluate archived sets.
	if _, err := tuner2.Iterate(); err != nil {
		t.Fatal(err)
	}
	seen := map[recipe.Set]int{}
	for _, e := range tuner2.History() {
		seen[e.Set]++
		if seen[e.Set] > 1 {
			t.Fatal("resumed tuner re-evaluated an archived set")
		}
	}
}

func TestLoadCheckpointGarbage(t *testing.T) {
	model, runner, iv, st := fixture(t, 89)
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := tuner.LoadCheckpoint(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected error on garbage checkpoint")
	}
}

func TestInsightRefreshMovesConditioning(t *testing.T) {
	model, runner, iv, st := fixture(t, 90)
	opt := fastOptions()
	opt.RefreshInsights = true
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if tuner.Insight() != iv {
		t.Fatal("initial insight should equal the probe insight")
	}
	if _, err := tuner.Run(2); err != nil {
		t.Fatal(err)
	}
	if tuner.Insight() == iv {
		t.Fatal("accumulated insight should differ from the probe insight")
	}
}

func TestInsightRefreshOffKeepsConditioning(t *testing.T) {
	model, runner, iv, st := fixture(t, 91)
	opt := fastOptions()
	opt.RefreshInsights = false
	tuner, err := NewTuner(model, runner, iv, st, qor.Default(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tuner.Run(2); err != nil {
		t.Fatal(err)
	}
	if tuner.Insight() != iv {
		t.Fatal("insight must stay fixed with refresh disabled")
	}
}

// tapeSource is the tape engine the tuner trained on before the flat
// kernels: per chunk of eight terms, a replica (parameters aliasing the
// model's Data, private Grad) backpropagates each term's log-likelihood
// tapes seeded with the term's loss derivatives, the second sequence's
// subgraph first as in a pair loss's graph; chunk gradients add into the
// model in chunk order and scale to the mean. core's TestFlatGradMatchesTape
// holds the loss heads against the full tape loss graphs.
type tapeSource struct {
	t     *testing.T
	model *core.Model
}

func (s tapeSource) Accumulate(_ context.Context, terms []core.Term) []float64 {
	rep, err := core.New(s.model.Cfg)
	if err != nil {
		s.t.Fatal(err)
	}
	params, rp := s.model.Params(), rep.Params()
	for i := range rp {
		rp[i].Data = params[i].Data
	}
	vals := make([]float64, len(terms))
	nn.ZeroGrads(params)
	for lo := 0; lo < len(terms); lo += 8 {
		nn.ZeroGrads(rp)
		for i := lo; i < min(lo+8, len(terms)); i++ {
			tm := terms[i]
			lw := rep.LogProb(tm.Insight, tm.Win)
			ll := tensor.Scalar(0)
			if tm.Los != nil {
				ll = rep.LogProb(tm.Insight, tm.Los)
			}
			v, gw, gl := tm.Loss(lw.Item(), ll.Item())
			vals[i] = v
			lw.Scale(gw).Add(ll.Scale(gl)).Backward()
		}
		for i, p := range params {
			for j, g := range rp[i].Grad {
				p.Grad[j] += g
			}
		}
	}
	nn.ScaleGrads(params, 1/float64(len(terms)))
	return vals
}

// TestBatchedUpdateWorkerEquivalence extends the training engine's
// determinism guard to the tuner: two tuners on identical fixtures must
// land on bit-identical parameters whether the MDPO minibatches are
// computed by 1 worker or 8, and so must a twin whose updates run on the
// tape — with minibatches and with per-pair steps.
func TestBatchedUpdateWorkerEquivalence(t *testing.T) {
	run := func(batch, workers int, tape bool) []float64 {
		model, runner, iv, st := fixture(t, 85)
		opt := fastOptions()
		opt.BatchPairs = batch
		opt.Workers = workers
		tuner, err := NewTuner(model, runner, iv, st, qor.Default(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if tape {
			tuner.engine = tapeSource{t, model}
		}
		if _, err := tuner.Run(2); err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range model.Params() {
			flat = append(flat, p.Data...)
		}
		return flat
	}
	same := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) || len(a) == 0 {
			t.Fatalf("%s: param count mismatch: %d vs %d", what, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: param[%d] differs: %v vs %v", what, i, a[i], b[i])
			}
		}
	}
	p1 := run(8, 1, false)
	init, _, _, _ := fixture(t, 85)
	moved := false
	for i, p := range init.Params()[0].Data {
		moved = moved || p != p1[i]
	}
	if !moved {
		t.Fatal("two iterations left the parameters untouched; the test compares nothing")
	}
	same("Workers=1 vs Workers=8", p1, run(8, 8, false))
	same("Workers=1 vs tape twin", p1, run(8, 1, true))
	same("per-pair vs tape twin", run(0, 0, false), run(0, 0, true))
}
