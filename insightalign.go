// Package insightalign is a from-scratch Go reproduction of "InsightAlign:
// A Transferable Physical Design Recipe Recommender Based on Design
// Insights" (Hsiao et al., DAC 2025).
//
// It bundles a complete simulated physical design flow (netlist generation,
// placement, clock tree synthesis, global routing, static timing analysis,
// and power analysis), a 40-recipe flow-parameter catalog, design insight
// extraction (72-dimensional flow-health vectors), and the InsightAlign
// recommender itself: a decoder-only transformer trained with margin-based
// direct preference optimization over pairwise QoR comparisons and queried
// with beam search, plus an online fine-tuning loop (margin-DPO + PPO) and
// the black-box tuning baselines the paper compares against.
//
// Quick start:
//
//	designs, _ := insightalign.Suite(0.25)
//	ds, _ := insightalign.BuildDataset(insightalign.DefaultDatasetOptions())
//	model, _ := insightalign.NewRecommender(insightalign.DefaultModelConfig())
//	_, _ = model.AlignmentTrain(ds.Points, insightalign.DefaultTrainOptions())
//	iv, _ := ds.InsightOf("D4")
//	recs := model.BeamSearch(iv.Slice(), 5)
//
// See examples/ for runnable programs and cmd/experiments for the harness
// that regenerates every table and figure of the paper.
package insightalign

import (
	"io"

	"insightalign/internal/baseline"
	"insightalign/internal/core"
	"insightalign/internal/dataset"
	"insightalign/internal/flow"
	"insightalign/internal/insight"
	"insightalign/internal/netlist"
	"insightalign/internal/nn"
	"insightalign/internal/online"
	"insightalign/internal/qor"
	"insightalign/internal/recipe"
	"insightalign/internal/serve"
)

// Design is a gate-level netlist with technology and clocking information.
type Design = netlist.Netlist

// DesignSpec parameterizes synthetic design generation.
type DesignSpec = netlist.Spec

// GenerateDesign builds a deterministic synthetic design from spec.
func GenerateDesign(spec DesignSpec) (*Design, error) { return netlist.Generate(spec) }

// Suite generates the 17-design benchmark suite (D1..D17) at the given
// scale (1.0 = default gate counts; smaller is faster).
func Suite(scale float64) ([]*Design, error) { return netlist.GenerateSuite(scale) }

// SuiteSpecs returns the suite's generation specs without building designs.
func SuiteSpecs(scale float64) []DesignSpec { return netlist.SuiteSpecs(scale) }

// Flow types: the simulated P&R tool.

// FlowParams is the complete flow parameter set that recipes perturb.
type FlowParams = flow.Params

// FlowMetrics are the signoff QoR numbers of one flow run.
type FlowMetrics = flow.Metrics

// FlowTrace is the per-stage observation record of one flow run.
type FlowTrace = flow.Trace

// FlowRunner executes flows against one immutable design.
type FlowRunner = flow.Runner

// DefaultFlowParams returns the tool's default configuration.
func DefaultFlowParams() FlowParams { return flow.DefaultParams() }

// NewFlowRunner wraps a design for repeated flow evaluation.
func NewFlowRunner(d *Design) *FlowRunner { return flow.NewRunner(d) }

// Recipes: the preconfigured option bundles of Table II.

// Recipe is one preconfigured flow option bundle.
type Recipe = recipe.Recipe

// RecipeSet is a subset of the 40-recipe catalog.
type RecipeSet = recipe.Set

// NumRecipes is the catalog size (n = 40 in the paper).
const NumRecipes = recipe.N

// Recipes returns the full 40-recipe catalog.
func Recipes() []Recipe { return recipe.Catalog() }

// ApplyRecipes applies a recipe set to base flow parameters.
func ApplyRecipes(base FlowParams, s RecipeSet) FlowParams { return recipe.ApplySet(base, s) }

// Insights: quantified expert flow-health analyses (Table I).

// Insight is the 72-dimensional design insight vector.
type Insight = insight.Vector

// InsightDim is the insight vector width.
const InsightDim = insight.Dim

// ExtractInsight computes the insight vector from one flow run.
func ExtractInsight(m *FlowMetrics, tr *FlowTrace) Insight { return insight.Extract(m, tr) }

// InsightFeatureNames returns the ordered names of all insight features
// (populated after the first extraction).
func InsightFeatureNames() []string { return insight.FeatureNames() }

// QoR: compound scoring (Eq. 4).

// Intention is a user-defined compound QoR objective.
type Intention = qor.Intention

// IntentionTerm is one weighted metric of an intention.
type IntentionTerm = qor.Term

// QoRStats holds per-design normalization statistics.
type QoRStats = qor.Stats

// DefaultIntention returns the paper's objective: minimize total power and
// TNS with weights 0.7 and 0.3.
func DefaultIntention() Intention { return qor.Default() }

// ScoreQoR computes the Eq. 4 compound score of one run.
func ScoreQoR(m FlowMetrics, st QoRStats, in Intention) float64 { return qor.Score(m, st, in) }

// Dataset: the offline alignment archive.

// Dataset is an offline archive of (insight, recipe set, QoR) datapoints.
type Dataset = dataset.Dataset

// DataPoint is one offline datapoint.
type DataPoint = dataset.Point

// DatasetOptions parameterize dataset construction.
type DatasetOptions = dataset.BuildOptions

// DefaultDatasetOptions matches the paper's setup at laptop scale.
func DefaultDatasetOptions() DatasetOptions { return dataset.DefaultBuildOptions() }

// BuildDataset runs the flow over the suite to construct the offline
// archive (the paper's 3,000 datapoints from 17 designs).
func BuildDataset(opts DatasetOptions) (*Dataset, error) { return dataset.Build(opts) }

// LoadDataset reads a dataset written by (*Dataset).Save.
func LoadDataset(r io.Reader) (*Dataset, error) { return dataset.Load(r) }

// Recommender: the InsightAlign model.

// Recommender is the decoder-only recipe recommendation model (Table III).
type Recommender = core.Model

// ModelConfig fixes the recommender architecture.
type ModelConfig = core.Config

// TrainOptions configure offline QoR alignment (Algorithm 1).
type TrainOptions = core.TrainOptions

// Candidate is one beam search recommendation.
type Candidate = core.Candidate

// RecipeDecoder is an incremental (KV-cached) decoding session bound to one
// design insight: create with (*Recommender).NewDecoder, then drive
// BeamSearch/Sample/Greedy/StepProb off the shared precomputed state. For
// scoring many designs at once, (*Recommender).BeamSearchBatch fans queries
// across a bounded worker pool.
type RecipeDecoder = core.Decoder

// DefaultModelConfig returns the Table III architecture.
func DefaultModelConfig() ModelConfig { return core.DefaultConfig() }

// NewRecommender creates a model with fresh parameters.
func NewRecommender(cfg ModelConfig) (*Recommender, error) { return core.New(cfg) }

// DefaultTrainOptions returns the paper's alignment hyperparameters (λ = 2).
func DefaultTrainOptions() TrainOptions { return core.DefaultTrainOptions() }

// SaveModel serializes model parameters.
func SaveModel(w io.Writer, m *Recommender) error { return nn.SaveParams(w, m.Params()) }

// LoadModel restores parameters into a structurally identical model.
func LoadModel(r io.Reader, m *Recommender) error { return nn.LoadParams(r, m.Params()) }

// SaveModelFile persists model parameters crash-safely (temp file + fsync
// + rename), so a serving registry polling the directory never observes a
// truncated model.
func SaveModelFile(path string, m *Recommender) error { return nn.SaveParamsFile(path, m.Params()) }

// LoadModelFile restores parameters from a file written by SaveModelFile
// (or the parameter prefix of an online-tuner checkpoint).
func LoadModelFile(path string, m *Recommender) error { return nn.LoadParamsFile(path, m.Params()) }

// Online fine-tuning: the closed-loop phase (Fig. 1b).

// Tuner runs online fine-tuning for one design.
type Tuner = online.Tuner

// TunerOptions configure online fine-tuning (K = 5 proposals/iteration).
type TunerOptions = online.Options

// TunerRecord summarizes one online iteration.
type TunerRecord = online.IterationRecord

// DefaultTunerOptions returns the paper's online setup.
func DefaultTunerOptions() TunerOptions { return online.DefaultOptions() }

// NewTuner builds a tuner on top of an offline-aligned model.
func NewTuner(m *Recommender, r *FlowRunner, iv Insight, st QoRStats, in Intention, opt TunerOptions) (*Tuner, error) {
	return online.NewTuner(m, r, iv, st, in, opt)
}

// Serving: the HTTP inference subsystem (internal/serve).

// ServeConfig parameterizes the recommendation server: listen address,
// admission waiters (QueueDepth), per-request deadline.
type ServeConfig = serve.Config

// Server is the HTTP recommendation server.
type Server = serve.Server

// ModelRegistry holds the served model behind an atomic pointer with
// hot-swap reloads and optional checkpoint-directory polling.
type ModelRegistry = serve.Registry

// DefaultServeConfig returns production-leaning serving defaults.
func DefaultServeConfig() ServeConfig { return serve.DefaultConfig() }

// NewModelRegistry creates an empty registry for the given architecture.
func NewModelRegistry(cfg ModelConfig) (*ModelRegistry, error) { return serve.NewRegistry(cfg) }

// NewServer builds the recommendation server over a registry. Install or
// load a model into the registry, then call Start.
func NewServer(cfg ServeConfig, reg *ModelRegistry) (*Server, error) { return serve.New(cfg, reg) }

// Baselines: the Section II comparators.

// BaselineOptimizer proposes recipe sets and learns from observed QoR.
type BaselineOptimizer = baseline.Optimizer

// NewBaseline constructs a baseline optimizer: "random", "bayesopt"/"bo",
// or "aco".
func NewBaseline(name string, seed int64, maxRecipesPerSet int) (BaselineOptimizer, error) {
	return baseline.NewByName(name, seed, maxRecipesPerSet)
}
