// Package faultinject is a deterministic, seeded fault-injection harness
// for the fault-tolerant execution layer: an Injector decides — as a pure
// function of (seed, run index) — whether a given run is faulted, at which
// stage the fault strikes, and what kind of fault it is (a hang that blocks
// until the caller's context is cancelled, a transient error, or corrupted
// QoR output). Because the schedule is a hash of the configuration rather
// than a stream of rand draws, it is independent of call order and
// concurrency: the same seed always produces the same fault schedule, which
// is what lets the chaos and degradation tests reproduce every failure path
// exactly instead of relying on luck.
//
// Wiring: Injector.Apply matches the flow.Runner.StageHook signature, so
// `runner.StageHook = inj.Apply` injects hangs and errors between flow
// stages; Plan exposes the per-run decision so a MetricsHook can corrupt
// QoR for Corrupt-planned runs; HookFunc adapts the injector to the serve
// subsystem's per-decoder-call BackendHook.
package faultinject

import (
	"context"
	"fmt"
	"sync/atomic"

	"insightalign/internal/mix"
)

// Kind enumerates injectable fault kinds.
type Kind uint8

const (
	// None means the run/stage is not faulted.
	None Kind = iota
	// Hang blocks the stage until the context is cancelled (simulating a
	// wedged tool invocation); the hook then returns the context error.
	Hang
	// Error fails the stage with a transient *InjectedError.
	Error
	// Corrupt leaves execution alone but marks the run's output for
	// corruption (non-finite QoR); the caller's metrics hook applies it.
	Corrupt
)

// String names the kind for labels and messages.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Hang:
		return "hang"
	case Error:
		return "error"
	case Corrupt:
		return "corrupt"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Fault is one planned injection: what strikes and where.
type Fault struct {
	Kind  Kind
	Stage string
}

// Config parameterizes an Injector.
type Config struct {
	// Seed determines the whole schedule; same seed, same schedule.
	Seed int64
	// Rate is the per-run fault probability in [0, 1].
	Rate float64
	// Stages are the checkpoints a fault may strike, drawn uniformly.
	// Empty defaults to the single stage "run".
	Stages []string
	// Kinds are the fault kinds drawn uniformly for a faulted run.
	// Empty defaults to {Hang, Error, Corrupt}.
	Kinds []Kind
	// From / To bound the active run-index window [From, To): runs outside
	// it are never faulted. To == 0 means unbounded — faults never clear.
	From, To uint64
}

// Injector produces the deterministic fault schedule and executes it.
type Injector struct {
	cfg    Config
	runs   atomic.Uint64    // NextRun allocation counter
	counts [4]atomic.Uint64 // applied faults by Kind
}

// New validates cfg and builds an injector. Invalid rates panic: the
// injector is test infrastructure and a bad config is a programming error.
func New(cfg Config) *Injector {
	if cfg.Rate < 0 || cfg.Rate > 1 {
		panic(fmt.Sprintf("faultinject: rate %g out of [0,1]", cfg.Rate))
	}
	if len(cfg.Stages) == 0 {
		cfg.Stages = []string{"run"}
	}
	if len(cfg.Kinds) == 0 {
		cfg.Kinds = []Kind{Hang, Error, Corrupt}
	}
	return &Injector{cfg: cfg}
}

// unit maps a 64-bit hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// Plan returns run's fault, if any. It is a pure function of (Config, run):
// safe for concurrent use and stable across processes.
func (in *Injector) Plan(run uint64) (Fault, bool) {
	if run < in.cfg.From || (in.cfg.To > 0 && run >= in.cfg.To) {
		return Fault{}, false
	}
	h := mix.SplitMix64(mix.SplitMix64(uint64(in.cfg.Seed)) ^ mix.SplitMix64(run))
	if unit(h) >= in.cfg.Rate {
		return Fault{}, false
	}
	stage := in.cfg.Stages[mix.SplitMix64(h^0x5374616765)%uint64(len(in.cfg.Stages))] // "Stage"
	kind := in.cfg.Kinds[mix.SplitMix64(h^0x4B696E64)%uint64(len(in.cfg.Kinds))]      // "Kind"
	return Fault{Kind: kind, Stage: stage}, true
}

// At returns the fault kind striking exactly (run, stage), or None. Corrupt
// plans return None here — they strike at output time via Plan, not at a
// stage checkpoint.
func (in *Injector) At(run uint64, stage string) Kind {
	f, ok := in.Plan(run)
	if !ok || f.Stage != stage || f.Kind == Corrupt {
		return None
	}
	return f.Kind
}

// Schedule materializes the first n per-run plans — the object the
// seeded-determinism property test compares.
func (in *Injector) Schedule(n int) []Fault {
	out := make([]Fault, n)
	for i := range out {
		if f, ok := in.Plan(uint64(i)); ok {
			out[i] = f
		}
	}
	return out
}

// NextRun allocates the next run index (for callers, like the serve
// backend hook, that have no natural run numbering of their own).
func (in *Injector) NextRun() uint64 { return in.runs.Add(1) - 1 }

// Applied reports how many faults of kind k Apply has executed.
func (in *Injector) Applied(k Kind) uint64 { return in.counts[k].Load() }

// InjectedError is the transient failure Apply returns for Error faults.
// It implements the Transient marker the flow error classifier retries.
type InjectedError struct {
	Run   uint64
	Stage string
}

// Error describes the injection site.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s (run %d)", e.Stage, e.Run)
}

// Transient marks the error retryable for flow.Classify.
func (e *InjectedError) Transient() bool { return true }

// Apply executes the schedule's decision for (run, stage): Hang blocks
// until ctx is cancelled and returns its error, Error returns an
// *InjectedError, anything else returns nil. The signature matches
// flow.Runner.StageHook.
func (in *Injector) Apply(ctx context.Context, run uint64, stage string) error {
	switch in.At(run, stage) {
	case Hang:
		in.counts[Hang].Add(1)
		<-ctx.Done()
		return fmt.Errorf("faultinject: hang at %s (run %d): %w", stage, run, ctx.Err())
	case Error:
		in.counts[Error].Add(1)
		return &InjectedError{Run: run, Stage: stage}
	}
	return nil
}

// HookFunc adapts the injector to a single-stage, self-counting hook (the
// serve subsystem's BackendHook): each call is the next run index.
func (in *Injector) HookFunc(stage string) func(context.Context) error {
	return func(ctx context.Context) error {
		return in.Apply(ctx, in.NextRun(), stage)
	}
}
