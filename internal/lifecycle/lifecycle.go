// Package lifecycle gates the path from "tuner wrote a checkpoint" to
// "the fleet decodes with it". A candidate checkpoint moves through an
// explicit state machine instead of being hot-swapped on sight:
//
//	submitted → SHADOW → CANARY → promoted
//	                │        │
//	                └────────┴──→ rolled back (file quarantined)
//
// Shadow evaluation decodes the candidate off the response path — a
// sampled mirror of live /v1/recommend traffic plus a replay of recent
// online-tuner iterations — and compares its top-1 log-probs against the
// live model's with a minimum-sample gate. A passing candidate enters
// canary: the serve handler routes a weighted, per-fingerprint-sticky
// fraction of real requests to it, and a breaker-style verdict engine
// watches the candidate's error ratio, p95 latency ratio, and mean QoR
// delta against the live arm. Healthy past the promote gate → full
// cutover through the registry's atomic hot-swap; any threshold trip →
// instant revert, journaled, candidate quarantined so a watcher can
// never resubmit it. Every transition is a journaled "lifecycle_event",
// and the journal is replayed on restart to restore a shadow or canary
// that was in flight when the process died.
package lifecycle

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"insightalign/internal/mix"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// State is the controller's phase for the current candidate.
type State int32

const (
	// StateIdle: no candidate in flight; all traffic is live.
	StateIdle State = iota
	// StateShadow: the candidate decodes mirrored/replayed traffic off
	// the response path; no client ever sees its output.
	StateShadow
	// StateCanary: a weighted fraction of real requests decode on the
	// candidate, measured by the per-version metrics plane.
	StateCanary
)

func (s State) String() string {
	switch s {
	case StateShadow:
		return "shadow"
	case StateCanary:
		return "canary"
	default:
		return "idle"
	}
}

// Thresholds are the verdict engine's trip wires. Zero values select the
// defaults below; the shadow gate and the canary breaker are separate so
// operators can run a strict offline gate with a permissive canary or
// vice versa.
type Thresholds struct {
	// MinShadowSamples gates the shadow verdict: no pass/fail until this
	// many candidate-vs-live comparisons (mirrored + replayed) landed.
	MinShadowSamples int
	// MaxShadowDelta fails shadow when mean(live − candidate) top-1
	// log-prob exceeds it — the candidate is that much less confident
	// about the recipes the live model (or the tuner's history) chose.
	MaxShadowDelta float64
	// MaxShadowErrorRatio fails shadow when the candidate's decode error
	// fraction exceeds it.
	MaxShadowErrorRatio float64

	// MinCanarySamples gates every rollback trigger: no verdict until
	// this many candidate-routed requests completed.
	MinCanarySamples int
	// PromoteSamples promotes a candidate that is still healthy after
	// this many candidate-routed requests.
	PromoteSamples int
	// MaxErrorRatio rolls back when candidate non-2xx fraction exceeds it.
	MaxErrorRatio float64
	// MaxLatencyRatio rolls back when candidate p95 latency exceeds
	// live p95 × ratio (both arms need MinCanarySamples).
	MaxLatencyRatio float64
	// MaxQoRRegression rolls back when mean live top-1 log-prob minus
	// mean candidate top-1 log-prob exceeds it.
	MaxQoRRegression float64
}

// DefaultThresholds returns production-leaning verdict thresholds.
func DefaultThresholds() Thresholds {
	return Thresholds{
		MinShadowSamples:    32,
		MaxShadowDelta:      1.0,
		MaxShadowErrorRatio: 0.05,
		MinCanarySamples:    32,
		PromoteSamples:      200,
		MaxErrorRatio:       0.10,
		MaxLatencyRatio:     3.0,
		MaxQoRRegression:    1.0,
	}
}

func (t Thresholds) withDefaults() Thresholds {
	d := DefaultThresholds()
	if t.MinShadowSamples <= 0 {
		t.MinShadowSamples = d.MinShadowSamples
	}
	if t.MaxShadowDelta <= 0 {
		t.MaxShadowDelta = d.MaxShadowDelta
	}
	if t.MaxShadowErrorRatio <= 0 {
		t.MaxShadowErrorRatio = d.MaxShadowErrorRatio
	}
	if t.MinCanarySamples <= 0 {
		t.MinCanarySamples = d.MinCanarySamples
	}
	if t.PromoteSamples <= 0 {
		t.PromoteSamples = d.PromoteSamples
	}
	if t.MaxErrorRatio <= 0 {
		t.MaxErrorRatio = d.MaxErrorRatio
	}
	if t.MaxLatencyRatio <= 0 {
		t.MaxLatencyRatio = d.MaxLatencyRatio
	}
	if t.MaxQoRRegression <= 0 {
		t.MaxQoRRegression = d.MaxQoRRegression
	}
	return t
}

// Config wires a Controller into a serving process.
type Config struct {
	// Registry is the live-model registry; promotion cuts over through
	// its atomic hot-swap. Required.
	Registry *serve.Registry
	// Journal records lifecycle_event entries and is the source of truth
	// for crash resume. Open it with obs.OpenJournal (append mode), not
	// obs.NewJournal — a truncating journal cannot restore state.
	Journal *obs.Journal
	// Thresholds configure the verdict engine; zero fields take defaults.
	Thresholds Thresholds
	// CanaryWeight is the fraction of fingerprints routed to the
	// candidate during canary, in (0, 1]; zero takes the default.
	CanaryWeight float64
	// ShadowSampleEvery mirrors every Nth validated live request during
	// shadow (1 = every request); zero takes the default.
	ShadowSampleEvery int
	// ShadowReplay, if non-empty, is an online-tuner journal whose
	// online_iteration entries are replay-scored at submit time: for
	// each iteration's best-QoR set, candidate and live log-probs are
	// compared — shadow evidence that exists even with zero live traffic.
	ShadowReplay string
	// CandidateHook, if non-nil, runs before every candidate-routed
	// decode — the canary fault seam the test harness injects 502s and
	// latency through.
	CandidateHook func(ctx context.Context) error
	// QuarantineDir receives rolled-back candidate files (os.Rename).
	// Empty: files stay put but their hashes are still blacklisted.
	QuarantineDir string
	// OnPromote runs after a cutover with the previous and the newly
	// installed snapshots (fleet reload fan-out, metric eviction, ...).
	OnPromote func(prev, promoted *serve.Snapshot)
	// OnRollback runs after a rollback with the candidate version and
	// the tripped threshold.
	OnRollback func(version, reason string)
	// Metrics, if non-nil, receives lifecycle gauges and counters.
	Metrics *obs.Registry
	Logger  *slog.Logger
}

// DefaultConfig returns the lifecycle defaults, the only place they are
// written; Registry must still be set.
func DefaultConfig() Config {
	return Config{Thresholds: DefaultThresholds(), CanaryWeight: 0.05, ShadowSampleEvery: 4}
}

// latencyWindow bounds the per-arm latency ring the p95 ratio is
// computed over — recent behaviour, not the whole canary's history.
const latencyWindow = 512

// routeEpoch is one canary assignment: candidate snapshot plus the
// deterministic hash split. Swapped atomically so Route never locks.
type routeEpoch struct {
	snap      *serve.Snapshot
	salt      uint64
	threshold uint64
}

// armStats accumulates one arm's canary outcomes.
type armStats struct {
	samples  int
	errors   int
	sumLP    float64
	lpCount  int
	latRing  []time.Duration
	latNext  int
	latTotal int
}

func (a *armStats) observe(code int, d time.Duration, logProb float64) {
	a.samples++
	if code >= 400 {
		a.errors++
	}
	if !math.IsNaN(logProb) {
		a.sumLP += logProb
		a.lpCount++
	}
	if len(a.latRing) < latencyWindow {
		a.latRing = append(a.latRing, d)
	} else {
		a.latRing[a.latNext] = d
		a.latNext = (a.latNext + 1) % latencyWindow
	}
	a.latTotal++
}

func (a *armStats) meanLP() float64 {
	if a.lpCount == 0 {
		return math.NaN()
	}
	return a.sumLP / float64(a.lpCount)
}

// p95 is the nearest-rank 95th percentile of the latency window, 0 when
// it is empty.
func (a *armStats) p95() time.Duration {
	tmp := slices.Clone(a.latRing)
	slices.Sort(tmp)
	return obs.QuantileDur(tmp, 0.95)
}

// shadowStats accumulates candidate-vs-live comparisons off the response
// path. delta is live top-1 log-prob minus candidate top-1 log-prob, so
// positive means the candidate is worse.
type shadowStats struct {
	samples  int
	errors   int
	sumDelta float64
}

func (s *shadowStats) meanDelta() float64 {
	if s.samples == 0 {
		return 0
	}
	return s.sumDelta / float64(s.samples)
}

// Controller is the checkpoint-lifecycle state machine. It implements
// serve.CandidateRouter (and http.Handler for /debug/lifecycle); create
// it with New, hand it to serve.Config.Canary, and Close it on shutdown.
type Controller struct {
	cfg Config
	thr Thresholds
	log *slog.Logger

	// route is the canary assignment read on every request; nil outside
	// canary. Cleared FIRST on any terminal verdict so no candidate
	// response is served after the decision.
	route atomic.Pointer[routeEpoch]
	// state mirrors the mu-protected phase for lock-free fast paths
	// (Mirror bails without the lock when not shadowing).
	state atomic.Int32

	mirrorCh  chan mirrorItem
	mirrorSeq atomic.Uint64
	workerWG  sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}

	evCounter *obs.Counter

	mu          sync.Mutex
	cand        *serve.Snapshot
	candPath    string
	shadow      shadowStats
	canaryCand  armStats
	canaryLive  armStats
	startedAt   time.Time
	quarantined map[string]string // candidate hash → rollback reason
	history     []EventData       // this process's transitions, newest last
}

type mirrorItem struct {
	iv []float64
	k  int
}

// EventData is the "data" payload of a "lifecycle_event" journal record.
type EventData struct {
	// Action: submitted, shadow_fail, canary_start, promoted,
	// rolled_back, rejected, resumed.
	Action string `json:"action"`
	// Version is the candidate tag ("cand-<hash>").
	Version string `json:"version,omitempty"`
	Path    string `json:"path,omitempty"`
	Reason  string `json:"reason,omitempty"`
	// Phase is the phase being entered or resumed.
	Phase string `json:"phase,omitempty"`
	// From/To are the live versions around a promotion cutover.
	From      string  `json:"from,omitempty"`
	To        string  `json:"to,omitempty"`
	Samples   int     `json:"samples,omitempty"`
	MeanDelta float64 `json:"mean_delta,omitempty"`
}

// lifecycleEvent is the journal event name every transition records.
const lifecycleEvent = "lifecycle_event"

// New builds a Controller. The registry must already hold a live model
// before candidates are submitted.
func New(cfg Config) (*Controller, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("lifecycle: Config.Registry is required")
	}
	def := DefaultConfig()
	if cfg.CanaryWeight == 0 {
		cfg.CanaryWeight = def.CanaryWeight
	}
	if cfg.CanaryWeight < 0 || cfg.CanaryWeight > 1 || math.IsNaN(cfg.CanaryWeight) {
		return nil, fmt.Errorf("lifecycle: CanaryWeight %v outside (0, 1]", cfg.CanaryWeight)
	}
	if cfg.ShadowSampleEvery <= 0 {
		cfg.ShadowSampleEvery = def.ShadowSampleEvery
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Controller{
		cfg:         cfg,
		thr:         cfg.Thresholds.withDefaults(),
		log:         cfg.Logger,
		mirrorCh:    make(chan mirrorItem, 64),
		closed:      make(chan struct{}),
		quarantined: make(map[string]string),
	}
	if cfg.Metrics != nil {
		c.evCounter = cfg.Metrics.Counter("insightalign_lifecycle_events_total",
			"Lifecycle state-machine transitions by action.", "action")
		cfg.Metrics.GaugeFunc("insightalign_lifecycle_state",
			"Lifecycle phase: 0 idle, 1 shadow, 2 canary.",
			func() float64 { return float64(c.state.Load()) })
		cfg.Metrics.InfoFunc("insightalign_lifecycle_candidate",
			"Candidate version currently in flight.", "version",
			func() string {
				c.mu.Lock()
				defer c.mu.Unlock()
				if c.cand == nil {
					return "none"
				}
				return c.cand.Version
			})
	}
	c.workerWG.Add(1)
	go c.shadowWorker()
	return c, nil
}

// Close stops the shadow worker. The controller must not be used after.
func (c *Controller) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
	})
	c.workerWG.Wait()
}

// State returns the current phase.
func (c *Controller) State() State { return State(c.state.Load()) }

// Candidate returns the in-flight candidate snapshot, or nil.
func (c *Controller) Candidate() *serve.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cand
}

// record journals one transition, mirrors it into the in-memory history
// (what /debug/lifecycle and the E2E assertions read), and counts it.
// Caller holds mu.
func (c *Controller) recordLocked(ev EventData) {
	c.history = append(c.history, ev)
	if c.evCounter != nil {
		c.evCounter.Inc(ev.Action)
	}
	if err := c.cfg.Journal.Record(lifecycleEvent, ev); err != nil {
		c.log.Warn("lifecycle journal write failed", "action", ev.Action, "err", err)
	}
	c.log.Info("lifecycle "+ev.Action,
		"version", ev.Version, "reason", ev.Reason, "phase", ev.Phase,
		"samples", ev.Samples)
}

// Submit loads the checkpoint at path as a candidate and starts shadow
// evaluation. It fails if a candidate is already in flight, the file
// does not parse against the registry's architecture, the hash is
// quarantined, or the weights are byte-identical to the live model.
func (c *Controller) Submit(path string) (*serve.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cand != nil {
		return nil, fmt.Errorf("lifecycle: candidate %s already in flight (%s)", c.cand.Version, State(c.state.Load()))
	}
	cand, err := c.cfg.Registry.LoadCandidate(path)
	if err != nil {
		c.recordLocked(EventData{Action: "rejected", Path: path, Reason: err.Error()})
		return nil, err
	}
	if reason, bad := c.quarantined[cand.Hash]; bad {
		err := fmt.Errorf("lifecycle: candidate %s is quarantined (%s)", cand.Version, reason)
		c.recordLocked(EventData{Action: "rejected", Version: cand.Version, Path: path, Reason: "quarantined: " + reason})
		return nil, err
	}
	if live := c.cfg.Registry.Current(); live != nil && live.Hash == cand.Hash {
		err := fmt.Errorf("lifecycle: candidate %s is byte-identical to live %s", cand.Version, live.Version)
		c.recordLocked(EventData{Action: "rejected", Version: cand.Version, Path: path, Reason: "identical to live"})
		return nil, err
	}
	c.cand = cand
	c.candPath = path
	c.shadow = shadowStats{}
	c.canaryCand = armStats{}
	c.canaryLive = armStats{}
	c.startedAt = time.Now()
	c.state.Store(int32(StateShadow))
	c.recordLocked(EventData{Action: "submitted", Version: cand.Version, Path: path, Phase: "shadow"})
	// Replay-score the tuner journal synchronously: deterministic shadow
	// evidence that exists before (or without) any live traffic.
	if c.cfg.ShadowReplay != "" {
		stats, err := c.replayScoreLocked(cand)
		if err != nil {
			c.log.Warn("lifecycle replay scoring failed", "path", c.cfg.ShadowReplay, "err", err)
		} else {
			c.shadow.samples += stats.samples
			c.shadow.errors += stats.errors
			c.shadow.sumDelta += stats.sumDelta
		}
	}
	c.evaluateShadowLocked()
	return cand, nil
}

// Mirror implements serve.CandidateRouter: during shadow, every Nth
// validated live request is copied to the shadow worker. Never blocks —
// a full channel drops the sample.
func (c *Controller) Mirror(iv []float64, k int) {
	if State(c.state.Load()) != StateShadow {
		return
	}
	if c.mirrorSeq.Add(1)%uint64(c.cfg.ShadowSampleEvery) != 0 {
		return
	}
	item := mirrorItem{iv: append([]float64(nil), iv...), k: k}
	select {
	case c.mirrorCh <- item:
	default:
	}
}

// Route implements serve.CandidateRouter: deterministic sticky
// assignment. The salt derives from the candidate hash, so the same
// fingerprints ride the canary before and after a crash-resume.
func (c *Controller) Route(fp uint64) *serve.Snapshot {
	e := c.route.Load()
	if e == nil {
		return nil
	}
	if mix.SplitMix64(fp^e.salt) < e.threshold {
		return e.snap
	}
	return nil
}

// CandidateHook implements serve.CandidateRouter.
func (c *Controller) CandidateHook() func(ctx context.Context) error {
	return c.cfg.CandidateHook
}

// ObserveCandidate implements serve.CandidateRouter: one candidate-routed
// outcome for the verdict engine.
func (c *Controller) ObserveCandidate(code int, d time.Duration, logProb float64) {
	if State(c.state.Load()) != StateCanary {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if State(c.state.Load()) != StateCanary {
		return
	}
	c.canaryCand.observe(code, d, logProb)
	c.evaluateCanaryLocked()
}

// ObserveLive implements serve.CandidateRouter: one live-arm decode
// outcome, the canary comparison baseline.
func (c *Controller) ObserveLive(code int, d time.Duration, logProb float64) {
	if State(c.state.Load()) != StateCanary {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if State(c.state.Load()) != StateCanary {
		return
	}
	c.canaryLive.observe(code, d, logProb)
}

// recordShadowSample feeds one mirrored comparison into the shadow gate.
func (c *Controller) recordShadowSample(delta float64, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if State(c.state.Load()) != StateShadow {
		return
	}
	c.shadow.samples++
	if failed {
		c.shadow.errors++
	} else {
		c.shadow.sumDelta += delta
	}
	c.evaluateShadowLocked()
}

// evaluateShadowLocked applies the shadow gate once the minimum sample
// count is reached: fail → rollback (quarantine), pass → enter canary.
func (c *Controller) evaluateShadowLocked() {
	if c.cand == nil || State(c.state.Load()) != StateShadow {
		return
	}
	if c.shadow.samples < c.thr.MinShadowSamples {
		return
	}
	errRatio := float64(c.shadow.errors) / float64(c.shadow.samples)
	if errRatio > c.thr.MaxShadowErrorRatio {
		c.rollbackLocked(fmt.Sprintf("shadow error ratio %.3f > %.3f", errRatio, c.thr.MaxShadowErrorRatio), "shadow")
		return
	}
	if d := c.shadow.meanDelta(); d > c.thr.MaxShadowDelta {
		c.rollbackLocked(fmt.Sprintf("shadow log-prob regression %.3f > %.3f", d, c.thr.MaxShadowDelta), "shadow")
		return
	}
	c.enterCanaryLocked()
}

// enterCanaryLocked starts routing a weighted fingerprint slice to the
// candidate. The route epoch is published LAST so a request can never be
// candidate-routed before the canary stats are armed.
func (c *Controller) enterCanaryLocked() {
	c.recordLocked(EventData{
		Action: "canary_start", Version: c.cand.Version, Path: c.candPath,
		Phase: "canary", Samples: c.shadow.samples, MeanDelta: c.shadow.meanDelta(),
	})
	c.state.Store(int32(StateCanary))
	c.route.Store(&routeEpoch{
		snap:      c.cand,
		salt:      saltFor(c.cand.Hash),
		threshold: weightThreshold(c.cfg.CanaryWeight),
	})
}

// evaluateCanaryLocked is the breaker-style verdict engine, run after
// every candidate observation.
func (c *Controller) evaluateCanaryLocked() {
	if c.cand == nil || State(c.state.Load()) != StateCanary {
		return
	}
	cs := &c.canaryCand
	if cs.samples < c.thr.MinCanarySamples {
		return
	}
	if ratio := float64(cs.errors) / float64(cs.samples); ratio > c.thr.MaxErrorRatio {
		c.rollbackLocked(fmt.Sprintf("canary error ratio %.3f > %.3f", ratio, c.thr.MaxErrorRatio), "canary")
		return
	}
	if ls := &c.canaryLive; ls.samples >= c.thr.MinCanarySamples {
		if lp95 := ls.p95(); lp95 > 0 {
			if ratio := float64(cs.p95()) / float64(lp95); ratio > c.thr.MaxLatencyRatio {
				c.rollbackLocked(fmt.Sprintf("canary p95 latency ratio %.2f > %.2f", ratio, c.thr.MaxLatencyRatio), "canary")
				return
			}
		}
		if lm, cm := ls.meanLP(), cs.meanLP(); !math.IsNaN(lm) && !math.IsNaN(cm) {
			if reg := lm - cm; reg > c.thr.MaxQoRRegression {
				c.rollbackLocked(fmt.Sprintf("canary QoR regression %.3f > %.3f", reg, c.thr.MaxQoRRegression), "canary")
				return
			}
		}
	}
	if cs.samples >= c.thr.PromoteSamples {
		c.promoteLocked()
	}
}

// promoteLocked cuts the candidate over as the live model.
func (c *Controller) promoteLocked() {
	// Clear the canary split first: from this instant every request is
	// answered by the (about to be) promoted live snapshot, and no
	// response is stamped with the cand- tag anymore.
	c.route.Store(nil)
	prev := c.cfg.Registry.Current()
	promoted, err := c.cfg.Registry.Adopt(c.cand)
	if err != nil {
		// Adopt only fails on nil input; treat defensively as rollback.
		c.rollbackLocked("promotion failed: "+err.Error(), "canary")
		return
	}
	ev := EventData{
		Action: "promoted", Version: c.cand.Version, Path: c.candPath,
		Samples: c.canaryCand.samples, To: promoted.Version,
	}
	if prev != nil {
		ev.From = prev.Version
	}
	c.recordLocked(ev)
	c.clearLocked()
	if c.cfg.OnPromote != nil {
		c.cfg.OnPromote(prev, promoted)
	}
}

// rollbackLocked reverts to the live model and quarantines the candidate.
// Order matters: the route pointer is cleared BEFORE the journal write
// and the callbacks, so zero candidate responses are served after the
// decision lands.
func (c *Controller) rollbackLocked(reason, phase string) {
	c.route.Store(nil)
	cand, path := c.cand, c.candPath
	samples := c.shadow.samples
	meanDelta := c.shadow.meanDelta()
	if phase == "canary" {
		samples = c.canaryCand.samples
	}
	c.quarantined[cand.Hash] = reason
	qPath := c.quarantineFile(path)
	c.recordLocked(EventData{
		Action: "rolled_back", Version: cand.Version, Path: qPath,
		Reason: reason, Phase: phase, Samples: samples, MeanDelta: meanDelta,
	})
	c.clearLocked()
	if c.cfg.OnRollback != nil {
		c.cfg.OnRollback(cand.Version, reason)
	}
}

// clearLocked resets to idle after a terminal verdict.
func (c *Controller) clearLocked() {
	c.state.Store(int32(StateIdle))
	c.cand = nil
	c.candPath = ""
}

// quarantineFile moves a rolled-back candidate out of circulation so a
// checkpoint watcher can never resubmit it. Returns the file's final
// path (unchanged when no quarantine dir is configured or the move
// fails — the hash blacklist still blocks resubmission).
func (c *Controller) quarantineFile(path string) string {
	if c.cfg.QuarantineDir == "" || path == "" {
		return path
	}
	if err := os.MkdirAll(c.cfg.QuarantineDir, 0o755); err != nil {
		c.log.Warn("lifecycle quarantine dir", "err", err)
		return path
	}
	dst := filepath.Join(c.cfg.QuarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		c.log.Warn("lifecycle quarantine move failed", "path", path, "err", err)
		return path
	}
	return dst
}

// Promote forces an immediate cutover of the in-flight candidate —
// the operator override behind POST /debug/lifecycle action=promote.
func (c *Controller) Promote() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cand == nil {
		return fmt.Errorf("lifecycle: no candidate in flight")
	}
	c.promoteLocked()
	return nil
}

// Rollback forces an immediate rollback of the in-flight candidate.
func (c *Controller) Rollback(reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cand == nil {
		return fmt.Errorf("lifecycle: no candidate in flight")
	}
	if reason == "" {
		reason = "operator rollback"
	}
	c.rollbackLocked(reason, State(c.state.Load()).String())
	return nil
}

// Resume replays the lifecycle journal and restores an in-flight
// candidate that was shadowing or canarying when the process died: the
// checkpoint is reloaded from its journaled path, its hash is verified
// against the journaled version tag, and the phase re-enters with fresh
// stats (a canary resumes its exact fingerprint slice — the salt derives
// from the hash). Quarantined hashes are restored from rolled_back
// entries so a rejected candidate stays rejected across restarts.
// Call once, after New and before serving traffic.
func (c *Controller) Resume() error {
	if c.cfg.Journal == nil {
		return nil
	}
	entries, err := obs.ReadJournalFile(c.cfg.Journal.Path())
	if err != nil {
		return fmt.Errorf("lifecycle: resume: %w", err)
	}
	type inflight struct {
		version, path, phase string
	}
	var open *inflight
	quarantined := make(map[string]string)
	for _, e := range entries {
		if e.Event != lifecycleEvent || len(e.Data) == 0 {
			continue
		}
		var ev EventData
		if err := unmarshalEvent(e.Data, &ev); err != nil {
			continue
		}
		switch ev.Action {
		case "submitted":
			open = &inflight{version: ev.Version, path: ev.Path, phase: "shadow"}
		case "canary_start":
			if open != nil && open.version == ev.Version {
				open.phase = "canary"
			}
		case "resumed":
			if open != nil && open.version == ev.Version && ev.Phase != "" {
				open.phase = ev.Phase
			}
		case "promoted", "rejected":
			open = nil
		case "rolled_back":
			if h := strings.TrimPrefix(ev.Version, "cand-"); h != ev.Version {
				quarantined[h] = ev.Reason
			}
			open = nil
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for h, reason := range quarantined {
		c.quarantined[h] = reason
	}
	if open == nil || c.cand != nil {
		return nil
	}
	cand, err := c.cfg.Registry.LoadCandidate(open.path)
	if err != nil {
		c.recordLocked(EventData{Action: "rejected", Version: open.version, Path: open.path,
			Reason: "resume reload failed: " + err.Error()})
		return nil
	}
	if cand.Version != open.version {
		c.recordLocked(EventData{Action: "rejected", Version: open.version, Path: open.path,
			Reason: "resume hash mismatch: file is now " + cand.Version})
		return nil
	}
	c.cand = cand
	c.candPath = open.path
	c.shadow = shadowStats{}
	c.canaryCand = armStats{}
	c.canaryLive = armStats{}
	c.startedAt = time.Now()
	c.recordLocked(EventData{Action: "resumed", Version: cand.Version, Path: open.path, Phase: open.phase})
	if open.phase == "canary" {
		c.state.Store(int32(StateCanary))
		c.route.Store(&routeEpoch{
			snap:      cand,
			salt:      saltFor(cand.Hash),
			threshold: weightThreshold(c.cfg.CanaryWeight),
		})
	} else {
		c.state.Store(int32(StateShadow))
	}
	return nil
}

// History returns this process's lifecycle transitions, oldest first.
func (c *Controller) History() []EventData {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]EventData(nil), c.history...)
}

// saltFor derives the canary hash-split salt from the candidate hash so
// the split is sticky across process restarts of the same candidate.
func saltFor(hash string) uint64 {
	var h uint64 = 0xC0FFEE_5EED
	for i := 0; i < len(hash); i++ {
		h = mix.SplitMix64(h ^ uint64(hash[i]))
	}
	return h
}

// weightThreshold maps a weight in [0, 1] to the uint64 comparison bound
// Route uses: P(mix.SplitMix64(fp^salt) < threshold) == weight.
func weightThreshold(w float64) uint64 {
	if w <= 0 {
		return 0
	}
	if w >= 1 {
		return math.MaxUint64
	}
	return uint64(w * float64(1<<32) * float64(1<<32))
}
