// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus microbenchmarks of the core computational
// kernels. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches use a reduced-scale dataset and training budget
// so one iteration completes in seconds; cmd/experiments runs the
// full-scale versions and writes the actual tables/series.
package insightalign_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"insightalign"
	"insightalign/internal/dataset"
	"insightalign/internal/experiments"
	"insightalign/internal/flow"
	"insightalign/internal/insight"
	"insightalign/internal/netlist"
)

// Shared fixtures, built once.
var (
	fixOnce sync.Once
	fixDS   *dataset.Dataset
	fixEnv  *experiments.Env
	fixT4   *experiments.Table4Result
	fixNL   *netlist.Netlist
	fixErr  error
)

func fixtures(b *testing.B) (*experiments.Env, *experiments.Table4Result) {
	b.Helper()
	fixOnce.Do(func() {
		opts := dataset.DefaultBuildOptions()
		opts.Scale = 0.05
		opts.PointsPerDesign = 12
		fixDS, fixErr = dataset.Build(opts)
		if fixErr != nil {
			return
		}
		cfg := experiments.Quick()
		cfg.Train.Epochs = 2
		cfg.Train.MaxPairsPerDesign = 60
		fixEnv, fixErr = experiments.NewEnv(fixDS, cfg)
		if fixErr != nil {
			return
		}
		fixT4, fixErr = fixEnv.RunTable4()
		if fixErr != nil {
			return
		}
		fixNL, fixErr = netlist.Generate(netlist.Spec{
			Name: "bench", Seed: 5, Gates: 800, SeqFraction: 0.3, Depth: 11,
			TechName: "N16", ClockTightness: 0.95, HVTFraction: 0.3, LVTFraction: 0.1,
			Locality: 0.4, FanoutSkew: 0.4, ShortPathFraction: 0.2, ActivityMean: 0.2,
		})
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixEnv, fixT4
}

// BenchmarkTable4ZeroShot regenerates Table IV: 4-fold cross-validated
// offline alignment and zero-shot evaluation over all 17 designs.
func BenchmarkTable4ZeroShot(b *testing.B) {
	env, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t4, err := env.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		if len(t4.Rows) != 17 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkFig5Scatter regenerates the Fig. 5 power-TNS scatter series for
// D4, D6, D11, D14 from the cross-validation run.
func BenchmarkFig5Scatter(b *testing.B) {
	env, t4 := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := env.RunFig5(t4, nil)
		if err != nil {
			b.Fatal(err)
		}
		if s := experiments.FormatFig5(series); len(s) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkFig6OnlineTrajectory regenerates the Fig. 6 online fine-tuning
// trajectory (per-iteration power/TNS/QoR) for D10.
func BenchmarkFig6OnlineTrajectory(b *testing.B) {
	env, t4 := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.RunOnline(t4, "D10")
		if err != nil {
			b.Fatal(err)
		}
		if s := experiments.FormatFig6([]*experiments.OnlineResult{r}); len(s) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkFig7ProgressiveScatter regenerates the Fig. 7 progressive QoR
// scatter for D10 during online fine-tuning.
func BenchmarkFig7ProgressiveScatter(b *testing.B) {
	env, t4 := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := env.RunOnline(t4, "D10")
		if err != nil {
			b.Fatal(err)
		}
		if s := env.FormatFig7(r); len(s) == 0 {
			b.Fatal("empty output")
		}
	}
}

// BenchmarkAblationStudy regenerates the design-choice ablation (loss
// variants and beam width sweep) on fold 0.
func BenchmarkAblationStudy(b *testing.B) {
	env, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ab, err := env.RunAblation()
		if err != nil {
			b.Fatal(err)
		}
		if len(ab.LossRows) != 4 {
			b.Fatal("wrong variant count")
		}
	}
}

// BenchmarkBaselineComparison regenerates the Section II comparison:
// random/BO/ACO under an evaluation budget vs zero-shot InsightAlign.
func BenchmarkBaselineComparison(b *testing.B) {
	env, t4 := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trs, _, err := env.RunBaselines(t4, "D8", 15, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(trs) != 3 {
			b.Fatal("wrong trajectory count")
		}
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the computational kernels.

// BenchmarkFlowRun measures one full P&R flow execution (placement → CTS →
// routing → STA with repair → leakage recovery → power) on an 800-gate
// design.
func BenchmarkFlowRun(b *testing.B) {
	fixtures(b)
	runner := flow.NewRunner(fixNL)
	p := flow.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runner.Run(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTeacherForcingLogProb measures one differentiable sequence
// likelihood evaluation (Eq. 3) — the inner loop of alignment training.
func BenchmarkTeacherForcingLogProb(b *testing.B) {
	model, err := insightalign.NewRecommender(insightalign.DefaultModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	iv := make([]float64, insightalign.InsightDim)
	for i := range iv {
		iv[i] = rng.NormFloat64()
	}
	bits := make([]int, insightalign.NumRecipes)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := model.LogProb(iv, bits)
		if lp.Item() >= 0 {
			b.Fatal("log prob must be negative")
		}
	}
}

// BenchmarkMDPOPairUpdate measures one margin-DPO training update (two
// teacher-forced likelihoods, backward pass, Adam step).
func BenchmarkMDPOPairUpdate(b *testing.B) {
	env, _ := fixtures(b)
	train, _ := env.Data.Split([]string{"D1"})
	model, err := insightalign.NewRecommender(insightalign.DefaultModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	topt := insightalign.DefaultTrainOptions()
	topt.Epochs = 1
	topt.MaxPairsPerDesign = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topt.Seed = int64(i)
		if _, err := model.AlignmentTrain(train[:30], topt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTrainPoints builds the ~3,000-point synthetic archive (17 designs ×
// 176 points, the paper's full dataset shape) used by the alignment
// training benchmarks. Points are synthesized directly — no flow runs — so
// the benchmark isolates the training loop.
func benchTrainPoints() []dataset.Point {
	rng := rand.New(rand.NewSource(12))
	var pts []dataset.Point
	for d := 0; d < 17; d++ {
		var iv insight.Vector
		for i := 0; i < 8; i++ {
			iv[i] = rng.NormFloat64() * 0.5
		}
		name := fmt.Sprintf("B%d", d)
		for k := 0; k < 176; k++ {
			pts = append(pts, dataset.Point{
				DesignName: name,
				Insight:    iv,
				Set:        dataset.SampleSet(rng, 5),
				QoR:        rng.Float64(),
			})
		}
	}
	return pts
}

func benchAlignmentTrain(b *testing.B, workers int) {
	pts := benchTrainPoints()
	topt := insightalign.DefaultTrainOptions()
	topt.Epochs = 1
	topt.MaxPairsPerDesign = 24
	topt.BatchSize = 32
	topt.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		model, err := insightalign.NewRecommender(insightalign.DefaultModelConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := model.AlignmentTrain(pts, topt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st.Epochs[0].PairsPerSec, "pairs/s")
	}
}

// BenchmarkAlignmentTrainSerial measures one minibatch alignment epoch over
// the 3,000-point archive with a single worker — the baseline for the
// data-parallel engine's speedup.
func BenchmarkAlignmentTrainSerial(b *testing.B) { benchAlignmentTrain(b, 1) }

// BenchmarkAlignmentTrainParallel measures the same epoch sharded across 8
// workers. The trained parameters are bit-identical to the serial run; only
// wall-clock differs.
func BenchmarkAlignmentTrainParallel(b *testing.B) { benchAlignmentTrain(b, 8) }

// benchModelIV builds the default recommender and one random insight query.
func benchModelIV(b *testing.B, seed int64) (*insightalign.Recommender, []float64) {
	b.Helper()
	model, err := insightalign.NewRecommender(insightalign.DefaultModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	iv := make([]float64, insightalign.InsightDim)
	for i := range iv {
		iv[i] = rng.NormFloat64()
	}
	return model, iv
}

// BenchmarkBeamSearchK5 measures the paper's inference path: beam search
// with width 5 over the 40 recipe decisions (KV-cached engine). Its ratio
// to BenchmarkBeamSearchNaive in internal/core, on the same query, is the
// incremental engine's speedup.
func BenchmarkBeamSearchK5(b *testing.B) {
	model, iv := benchModelIV(b, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := model.BeamSearch(iv, 5); len(cands) != 5 {
			b.Fatal("wrong candidate count")
		}
	}
}

// BenchmarkBeamSearchBatch17 measures parallel multi-design inference: 17
// independent insights (the zero-shot evaluation shape of Table IV) fanned
// across the bounded worker pool.
func BenchmarkBeamSearchBatch17(b *testing.B) {
	model, _ := benchModelIV(b, 2)
	rng := rand.New(rand.NewSource(6))
	ivs := make([][]float64, 17)
	for i := range ivs {
		iv := make([]float64, insightalign.InsightDim)
		for j := range iv {
			iv[j] = rng.NormFloat64()
		}
		ivs[i] = iv
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := model.BeamSearchBatch(ivs, 5)
		if len(out) != 17 || len(out[0]) != 5 {
			b.Fatal("wrong batch shape")
		}
	}
}

// BenchmarkDatasetBuild measures offline archive construction (17 designs,
// probe + sampled recipe sets, parallel flow evaluation).
func BenchmarkDatasetBuild(b *testing.B) {
	opts := dataset.DefaultBuildOptions()
	opts.Scale = 0.05
	opts.PointsPerDesign = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i)
		if _, err := dataset.Build(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsightExtraction measures one 72-feature insight vector
// assembly from a completed flow trace.
func BenchmarkInsightExtraction(b *testing.B) {
	fixtures(b)
	runner := flow.NewRunner(fixNL)
	m, tr, err := runner.Run(flow.DefaultParams(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := insightalign.ExtractInsight(m, tr)
		if v[0] != v[0] { // NaN guard
			b.Fatal("NaN insight")
		}
	}
}

// BenchmarkTransferCurve regenerates the transfer-curve extension
// experiment (zero-shot Win% vs number of training designs).
func BenchmarkTransferCurve(b *testing.B) {
	env, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := env.RunTransferCurve([]int{2})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 1 {
			b.Fatal("wrong point count")
		}
	}
}

// BenchmarkIntentionSweep regenerates the intention-sweep extension
// experiment (recommendations under different QoR tradeoffs).
func BenchmarkIntentionSweep(b *testing.B) {
	env, _ := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := env.RunIntentionSweep()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkExplain measures the per-recipe insight attribution pass.
func BenchmarkExplain(b *testing.B) {
	model, err := insightalign.NewRecommender(insightalign.DefaultModelConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	iv := make([]float64, insightalign.InsightDim)
	for i := range iv {
		iv[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if atts := model.Explain(iv, 3); len(atts) != insightalign.NumRecipes {
			b.Fatal("wrong attribution count")
		}
	}
}
