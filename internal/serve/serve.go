// Package serve is the recommendation serving subsystem: a stdlib
// net/http JSON API over the InsightAlign recommender. Every request
// decodes in its own handler goroutine behind one bounded admission gate
// (GOMAXPROCS decode slots plus a bounded number of waiters, 429 beyond
// them). A hot-swappable model registry rolls online fine-tuning
// checkpoints into serving without downtime. The server also exports
// Prometheus-text metrics, logs structured requests and shuts down
// gracefully.
//
// Routes:
//
//	POST /v1/recommend        one insight vector -> top-K recipe sets
//	POST /v1/recommend/batch  many insight vectors in one call
//	POST /v1/models/reload    hot-swap weights from disk
//	GET  /healthz             liveness + live model version
//	GET  /metrics             Prometheus text exposition
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/obs/slo"
	"insightalign/internal/qor"
	"insightalign/internal/recipe"
	"insightalign/internal/retrieve"
)

// Config parameterizes a Server. The zero value is unusable; start from
// DefaultConfig.
type Config struct {
	// Addr is the listen address (":8080").
	Addr string
	// Model is the served architecture; must match the weight files the
	// registry loads.
	Model core.Config
	// DefaultBeamWidth is used when a request omits beam_width.
	DefaultBeamWidth int
	// MaxBeamWidth caps per-request beam widths.
	MaxBeamWidth int
	// QueueDepth bounds how many requests wait for a decode slot; beyond
	// it requests get 429. Decode is CPU-bound, so the gate has
	// runtime.GOMAXPROCS(0) slots.
	QueueDepth int
	// RequestTimeout is the per-request deadline (queue wait + decode).
	RequestTimeout time.Duration
	// BackendHook, if non-nil, runs before every decode, inside its
	// admission slot — the fault-injection seam the degradation tests use
	// to simulate hung or failing backends (faultinject.Injector.HookFunc
	// matches it).
	BackendHook func(ctx context.Context) error
	// Cache, if non-nil, is the insight-fingerprint response cache: a
	// repeat request for a known (design, beam width) under the live model
	// version is answered without touching the admission gate or the
	// decoder. Entries are stamped with the producing model version, so a
	// hot-swap invalidates them implicitly — a stale response is
	// structurally impossible, not merely evicted on a timer.
	Cache *retrieve.Cache
	// Store, if non-nil, is the insight-similarity outcome store: every
	// decode is warm-started with the best recipe sets of the query's
	// nearest stored neighbors (core BeamSearchSeeded), and each decode's
	// top candidate is fed back in with its log-probability as a
	// score-proxy QoR, stamped with the model version. Deployments can
	// pre-populate it from an online-tuner run journal
	// (retrieve.ReplayJournalFile) to transfer real flow-measured QoR.
	Store *retrieve.Store
	// WarmSeeds caps how many retrieved recipe sets seed each decode when
	// Store is set.
	WarmSeeds int
	// Logger receives structured request logs; nil means slog.Default().
	Logger *slog.Logger
	// Metrics is the registry the server's metric families bind into;
	// nil means the process-wide obs.Default().
	Metrics *obs.Registry
	// Tracer assigns and retains request traces; nil means the
	// process-wide obs.DefaultTracer().
	Tracer *obs.Tracer
	// SLO is the burn-rate objective engine. Every /v1/ request feeds it
	// twice: once under the "all" aggregate scope and once under the live
	// model version's scope, so /debug/slo reports both fleet-wide and
	// per-version verdicts. Its worst verdict folds into /healthz as
	// status "degraded" (still HTTP 200 — a burning SLO is an alert, not
	// a liveness failure, and must not make the fleet router eject the
	// replica). nil builds a default engine (slo.DefaultObjectives).
	SLO *slo.Engine
	// Profiler, if non-nil, is the continuous-profiling ring indexed at
	// /debug/profiles. The server does not own its lifecycle; the caller
	// that started it closes it.
	Profiler *obs.Profiler
	// Canary, if non-nil, is the checkpoint-lifecycle seam (implemented by
	// internal/lifecycle.Controller): per-request sticky candidate routing
	// during a canary, shadow mirroring of sampled live traffic, and the
	// live/candidate outcome feed its verdict engine consumes. When it also
	// implements http.Handler it is mounted at /debug/lifecycle.
	Canary CandidateRouter
}

// CandidateRouter is the serving-side contract of the checkpoint
// lifecycle. The server holds it as an interface so internal/lifecycle can
// depend on serve (registry, snapshots) without a cycle.
//
// Candidate-routed requests take a slot from the same admission gate as
// live ones but bypass the version-stamped response cache in BOTH
// directions: a cache hit stamped with the live version would silently
// mask the candidate, and a candidate-stamped Put would evict the live
// entry for that fingerprint. Candidate traffic always decodes.
type CandidateRouter interface {
	// Route returns the candidate snapshot that must serve the request
	// with this insight fingerprint, or nil for the live model. The
	// assignment is deterministic per fingerprint and sticky for the
	// candidate's whole canary, so repeat queries land on the same arm
	// and the retrieval cache stays coherent.
	Route(fp uint64) *Snapshot
	// CandidateHook is the candidate-decode fault seam (nil: healthy) —
	// the lifecycle test harness injects 502s and latency here without
	// touching the live path's BackendHook.
	CandidateHook() func(ctx context.Context) error
	// Mirror offers one validated live request for off-response-path
	// shadow decoding. The implementation samples and never blocks.
	Mirror(iv []float64, k int)
	// ObserveCandidate records a candidate-routed outcome (HTTP code,
	// decode latency, top-candidate log-prob; NaN when no decode
	// happened) for the canary verdict engine.
	ObserveCandidate(code int, d time.Duration, logProb float64)
	// ObserveLive records a live-path decode outcome — the canary
	// comparison baseline. Cache hits are not reported (no decode).
	ObserveLive(code int, d time.Duration, logProb float64)
}

// DefaultConfig returns production-leaning defaults around the paper's
// K = 5 beam width; it is the only place they are written.
func DefaultConfig() Config {
	return Config{
		Addr:             ":8080",
		Model:            core.DefaultConfig(),
		DefaultBeamWidth: 5,
		MaxBeamWidth:     16,
		QueueDepth:       256,
		RequestTimeout:   10 * time.Second,
		WarmSeeds:        4,
	}
}

// Server is the serving subsystem: admission gate -> decoder session in
// the handler goroutine, against a hot-swappable model registry.
type Server struct {
	cfg    Config
	reg    *Registry
	gate   *Gate
	met    *Metrics
	slo    *slo.Engine
	prof   *obs.Profiler // nil when continuous profiling is off
	tracer *obs.Tracer
	log    *slog.Logger

	httpSrv  *http.Server
	ln       net.Listener
	shutOnce sync.Once
}

// New builds a Server over a registry (which may be empty: requests get
// 503 until the first model is installed or loaded). Unset limits take
// their DefaultConfig values.
func New(cfg Config, reg *Registry) (*Server, error) {
	if reg == nil {
		return nil, fmt.Errorf("serve: nil registry")
	}
	// The registry's architecture is authoritative: it is what LoadFile
	// builds, so the server must validate against the same dimensions.
	cfg.Model = reg.Config()
	def := DefaultConfig()
	if cfg.DefaultBeamWidth < 1 {
		cfg.DefaultBeamWidth = def.DefaultBeamWidth
	}
	if cfg.MaxBeamWidth < cfg.DefaultBeamWidth {
		cfg.MaxBeamWidth = cfg.DefaultBeamWidth
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer()
	}
	if cfg.WarmSeeds < 1 {
		cfg.WarmSeeds = def.WarmSeeds
	}
	if cfg.SLO == nil {
		cfg.SLO = slo.New(slo.Config{})
	}
	s := &Server{cfg: cfg, reg: reg, slo: cfg.SLO, prof: cfg.Profiler,
		tracer: cfg.Tracer, log: cfg.Logger}
	s.gate = NewGate(runtime.GOMAXPROCS(0), cfg.QueueDepth)
	s.met = NewMetrics(cfg.Metrics, func() int { return int(s.gate.Queued()) }, reg.Version)
	s.httpSrv = &http.Server{Addr: cfg.Addr, Handler: s.Handler()}
	return s, nil
}

// Metrics exposes the server's metrics registry (for tests and the load
// generator's in-process mode).
func (s *Server) Metrics() *Metrics { return s.met }

// SLO exposes the server's burn-rate objective engine.
func (s *Server) SLO() *slo.Engine { return s.slo }

// Registry returns the model registry backing this server.
func (s *Server) Registry() *Registry { return s.reg }

// Gate returns the admission gate every decode passes through.
func (s *Server) Gate() *Gate { return s.gate }

// Handler returns the full route mux wrapped in metrics + logging
// middleware, for mounting under a custom listener or test server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/recommend", s.handleRecommend)
	mux.HandleFunc("/v1/recommend/batch", s.handleRecommendBatch)
	mux.HandleFunc("/v1/models/reload", s.handleReload)
	mux.HandleFunc("/healthz", s.handleHealthz)
	// /metrics, /debug/traces, and /debug/pprof/* come from the shared
	// observability layer, so one scrape of this listener also carries the
	// decoder and training metrics registered in the same registry.
	obs.RegisterDebug(mux, s.met.Registry(), s.tracer)
	mux.Handle("/debug/slo", s.slo.Handler())
	if s.prof != nil {
		mux.Handle("/debug/profiles", s.prof.Handler())
	}
	if h, ok := s.cfg.Canary.(http.Handler); ok {
		mux.Handle("/debug/lifecycle", h)
	}
	return s.instrument(mux)
}

// Start listens on cfg.Addr and serves until Shutdown. It returns once
// the listener is bound; serving continues in a background goroutine
// whose terminal error (if any) is reported through the returned channel.
func (s *Server) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	errc := make(chan error, 1)
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	s.log.Info("serving", "addr", ln.Addr().String(), "model_version", s.reg.Version())
	return errc, nil
}

// Addr returns the bound listen address (useful with Addr ":0").
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: stop accepting connections, wait for
// in-flight requests (bounded by ctx), then close the admission gate so
// any request still waiting for a slot fails with 503.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.shutOnce.Do(func() {
		err = s.httpSrv.Shutdown(ctx)
		s.gate.Close()
		s.log.Info("shut down", "err", err)
	})
	return err
}

// JSON wire types.

// RecommendRequest is the body of POST /v1/recommend and one element of a
// batch request.
type RecommendRequest struct {
	// Insight is the 72-dim design insight vector (Table I order).
	Insight []float64 `json:"insight"`
	// Intention optionally declares the QoR objective the caller is
	// optimizing for. It is validated and echoed back; the served model
	// was aligned offline for its training intention, so a mismatch is
	// the caller's signal to retrain, not a per-request switch.
	Intention *IntentionSpec `json:"intention,omitempty"`
	// BeamWidth is the number of recipe sets to return (default 5).
	BeamWidth int `json:"beam_width,omitempty"`
}

// IntentionSpec mirrors qor.Intention in JSON.
type IntentionSpec struct {
	Terms []IntentionTermSpec `json:"terms"`
}

// IntentionTermSpec is one weighted metric.
type IntentionTermSpec struct {
	Metric   string  `json:"metric"`
	Weight   float64 `json:"weight"`
	Maximize bool    `json:"maximize,omitempty"`
}

func (sp *IntentionSpec) toQoR() qor.Intention {
	in := qor.Intention{}
	for _, t := range sp.Terms {
		in.Terms = append(in.Terms, qor.Term{Metric: t.Metric, Weight: t.Weight, Maximize: t.Maximize})
	}
	return in
}

// CandidateJSON is one recommended recipe set.
type CandidateJSON struct {
	// Recipes is the 40-bit selection string, recipe 0 first.
	Recipes string `json:"recipes"`
	// Names lists the selected recipe names in catalog order.
	Names []string `json:"names"`
	// Count is the number of selected recipes.
	Count int `json:"count"`
	// LogProb is the policy log-likelihood of the set.
	LogProb float64 `json:"log_prob"`
}

// RecommendResponse is the body of a successful POST /v1/recommend.
type RecommendResponse struct {
	ModelVersion string          `json:"model_version"`
	BeamWidth    int             `json:"beam_width"`
	BatchSize    int             `json:"batch_size"`
	Candidates   []CandidateJSON `json:"candidates"`
	// TraceID names this request's trace, resolvable at /debug/traces?id=.
	TraceID string `json:"trace_id,omitempty"`
	// Cached is true when the response came from the fingerprint cache
	// without a decoder call; BatchSize is 0 in that case.
	Cached bool `json:"cached,omitempty"`
	// Error is set per-item in batch responses instead of failing the
	// whole batch.
	Error string `json:"error,omitempty"`
}

// BatchRequest is the body of POST /v1/recommend/batch.
type BatchRequest struct {
	Requests []RecommendRequest `json:"requests"`
}

// BatchResponse is the body of POST /v1/recommend/batch.
type BatchResponse struct {
	Results []RecommendResponse `json:"results"`
}

// ReloadRequest optionally names the weight file to load; empty means
// re-read the registry's most recent file.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports the swapped-in model.
type ReloadResponse struct {
	ModelVersion string `json:"model_version"`
	Source       string `json:"source"`
	LoadedAt     string `json:"loaded_at"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	ModelVersion  string  `json:"model_version,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	// SLO is the worst current burn-rate verdict ("ok" / "warn" /
	// "page"); anything past ok flips Status to "degraded" while the
	// response stays HTTP 200 (a burning SLO is not a liveness failure).
	SLO string `json:"slo,omitempty"`
}

// maxBodyBytes bounds request bodies; a 72-dim vector is ~2 KB, a full
// batch a few hundred KB.
const maxBodyBytes = 4 << 20

// Handlers.

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req RecommendRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if msg := s.validate(&req); msg != "" {
		s.writeError(w, r, http.StatusBadRequest, msg)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, code := s.recommend(ctx, &req)
	// The served version rides a response header so the instrumentation
	// middleware attributes the request to the model that actually decoded
	// it — during a canary that is the candidate version, not the live one.
	if resp.ModelVersion != "" {
		w.Header().Set("X-Model-Version", resp.ModelVersion)
	}
	if code != http.StatusOK {
		s.writeError(w, r, code, resp.Error)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BatchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, r, http.StatusBadRequest, "empty batch")
		return
	}
	for i := range req.Requests {
		if msg := s.validate(&req.Requests[i]); msg != "" {
			s.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("request %d: %s", i, msg))
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// Every element takes its own admission slot, so QueueDepth bounds a
	// client batch the same way it bounds concurrent singles.
	results := make([]RecommendResponse, len(req.Requests))
	var wg sync.WaitGroup
	for i := range req.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, code := s.recommend(ctx, &req.Requests[i])
			if code != http.StatusOK && resp.Error == "" {
				resp.Error = http.StatusText(code)
			}
			results[i] = resp
		}(i)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, BatchResponse{Results: results})
}

// recommend runs one validated request through the admission gate and
// shapes the response. Returns the HTTP status.
//
// With a Cache configured the decoder is skipped entirely when the
// (fingerprint, beam width) pair is already cached under the live model
// version; non-finite insight vectors bypass the cache because their
// fingerprint sentinels alias distinct inputs.
func (s *Server) recommend(ctx context.Context, req *RecommendRequest) (RecommendResponse, int) {
	k := req.BeamWidth
	if k <= 0 {
		k = s.cfg.DefaultBeamWidth
	}
	if k > s.cfg.MaxBeamWidth {
		k = s.cfg.MaxBeamWidth
	}
	// Checkpoint lifecycle seam. The canary routing decision comes BEFORE
	// the cache lookup: a candidate-routed request must always decode on
	// the candidate — a hit stamped with the live version would silently
	// mask the candidate and starve the verdict engine of samples.
	// Non-finite vectors never route (their fingerprint sentinels alias
	// distinct inputs, which would break sticky assignment).
	if lc := s.cfg.Canary; lc != nil && retrieve.FiniteVector(req.Insight) {
		lc.Mirror(req.Insight, k)
		if cand := lc.Route(retrieve.Fingerprint(req.Insight)); cand != nil {
			return s.recommendCandidate(ctx, req, cand, k)
		}
	}
	startAt := time.Now()
	var key uint64
	cacheable := false
	if s.cfg.Cache != nil {
		if version := s.reg.Version(); version != "" && retrieve.FiniteVector(req.Insight) {
			cacheable = true
			key = retrieve.CacheKey(retrieve.Fingerprint(req.Insight), k)
			if v, ok := s.cfg.Cache.Get(key, version); ok {
				s.met.ObserveCache("hit")
				resp := v.(RecommendResponse)
				resp.TraceID = obs.TraceIDFrom(ctx)
				resp.Cached = true
				return resp, http.StatusOK
			}
			s.met.ObserveCache("miss")
		} else {
			s.met.ObserveCache("bypass")
		}
	}
	cands, version, err := s.decode(ctx, req.Insight, k, nil)
	// Feed the lifecycle's live baseline: every live decode outcome
	// (queue wait + decode, matching what a client experiences), with the
	// top candidate's log-prob as the QoR proxy. Cache hits returned
	// above never reach here — no decode, no baseline sample.
	if lc := s.cfg.Canary; lc != nil {
		lc.ObserveLive(outcome(err, cands), time.Since(startAt), topLogProb(cands))
	}
	if err != nil {
		return RecommendResponse{Error: err.Error()}, errStatus(err)
	}
	resp := newResponse(ctx, version, k, cands)
	if cacheable {
		// The cached copy is stamped with the version that produced it (not
		// the registry's current one: a reload may have landed mid-decode)
		// and stripped of per-request fields.
		cached := resp
		cached.TraceID = ""
		cached.BatchSize = 0
		s.cfg.Cache.Put(key, version, cached)
	}
	return resp, http.StatusOK
}

// recommendCandidate serves one canary-assigned request on the candidate
// snapshot: a decode under the same admission gate, with the lifecycle's
// own fault seam, bypassing the response cache in both directions. The
// outcome feeds the canary verdict engine; the response is stamped with
// the candidate version so the per-version measurement plane (latency
// histograms, SLO scopes) attributes it correctly.
func (s *Server) recommendCandidate(ctx context.Context, req *RecommendRequest, cand *Snapshot, k int) (RecommendResponse, int) {
	startAt := time.Now()
	cands, _, err := s.decode(ctx, req.Insight, k, cand)
	s.cfg.Canary.ObserveCandidate(outcome(err, cands), time.Since(startAt), topLogProb(cands))
	if err != nil {
		return RecommendResponse{Error: err.Error(), ModelVersion: cand.Version}, errStatus(err)
	}
	return newResponse(ctx, cand.Version, k, cands), http.StatusOK
}

// errNonFinite rejects an insight whose decode scored a candidate NaN or
// ±Inf (HTTP 400). JSON carries only finite numbers, but huge ones such as
// 1e308 overflow the model; without this check the response's log-probs
// could not be encoded and the client would get a 200 with an empty body.
var errNonFinite = errors.New("serve: insight vector out of range: decode scores are not finite")

// decode runs one beam search in the calling goroutine. It waits for an
// admission slot inside the admission_queue span, runs the backend fault
// seam, decodes under a decoder_session child span, then records the
// decoder call, the QoR proxy and the outcome-store feed. cand, when
// non-nil, is the canary candidate: it decodes cold with the lifecycle's
// fault seam and never touches the outcome store. On success the version
// names the snapshot that decoded.
func (s *Server) decode(ctx context.Context, iv []float64, k int, cand *Snapshot) ([]core.Candidate, string, error) {
	ctx, span := obs.StartSpan(ctx, "admission_queue")
	defer span.End()
	if err := s.gate.Acquire(ctx); err != nil {
		s.met.ObserveRejection(rejectionReason(err))
		return nil, "", err
	}
	defer s.gate.Release()
	snap, hook, store := s.reg.Current(), s.cfg.BackendHook, s.cfg.Store
	if cand != nil {
		snap, hook, store = cand, s.cfg.Canary.CandidateHook(), nil
	}
	if snap == nil {
		return nil, "", ErrNoModel
	}
	// A hung hook holds this slot until the request's deadline fires, so
	// the stall is bounded.
	if err := runBackendHook(ctx, hook); err != nil {
		return nil, "", err
	}
	_, sp := obs.StartSpan(ctx, "decoder_session")
	sp.SetAttr("batch_size", "1")
	sp.SetAttr("model_version", snap.Version)
	if cand != nil {
		sp.SetAttr("canary", "true")
	}
	// With a retrieval store the decode is seeded with the query's nearest
	// neighbors' best sets; an empty store yields nil seeds, which
	// BeamSearchSeeded guarantees is bit-identical to the cold search.
	var seeds []recipe.Set
	if store != nil {
		seeds = store.BestSets(iv, s.cfg.WarmSeeds, 0)
	}
	cands := snap.Model.NewDecoder(iv).BeamSearchSeeded(k, seeds)
	sp.End()
	s.met.ObserveBatch(1)
	for _, c := range cands {
		if math.IsNaN(c.LogProb) || math.IsInf(c.LogProb, 0) {
			return nil, "", errNonFinite
		}
	}
	if len(cands) > 0 {
		// The top log-prob is the serving-side QoR proxy, attributed to the
		// model version that produced it.
		s.met.ObserveQoR(snap.Version, cands[0].LogProb)
		if store != nil {
			store.Add(iv, cands[0].Set, cands[0].LogProb, snap.Version)
		}
	}
	return cands, snap.Version, nil
}

// rejectionReason labels an admission refusal for the rejections counter.
func rejectionReason(err error) string {
	switch {
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	default:
		return "deadline"
	}
}

// outcome is the HTTP status a decode outcome maps to.
func outcome(err error, cands []core.Candidate) int {
	if err != nil {
		return errStatus(err)
	}
	return http.StatusOK
}

// topLogProb is the best candidate's log-prob, NaN when there is none.
func topLogProb(cands []core.Candidate) float64 {
	if len(cands) == 0 {
		return math.NaN()
	}
	return cands[0].LogProb
}

// newResponse shapes one decoded recommendation.
func newResponse(ctx context.Context, version string, k int, cands []core.Candidate) RecommendResponse {
	resp := RecommendResponse{
		ModelVersion: version,
		BeamWidth:    k,
		BatchSize:    1,
		Candidates:   make([]CandidateJSON, 0, len(cands)),
		TraceID:      obs.TraceIDFrom(ctx),
	}
	for _, c := range cands {
		resp.Candidates = append(resp.Candidates, toCandidateJSON(c))
	}
	return resp
}

func toCandidateJSON(c core.Candidate) CandidateJSON {
	names := []string{}
	for _, rc := range recipe.Catalog() {
		if c.Set[rc.ID] {
			names = append(names, rc.Name)
		}
	}
	return CandidateJSON{
		Recipes: c.Set.String(),
		Names:   names,
		Count:   c.Set.Count(),
		LogProb: c.LogProb,
	}
}

// validate checks one request's insight width, beam width, and intention.
// Returns "" when valid.
func (s *Server) validate(req *RecommendRequest) string {
	if len(req.Insight) != s.cfg.Model.InsightDim {
		return fmt.Sprintf("insight has %d dims, want %d", len(req.Insight), s.cfg.Model.InsightDim)
	}
	if req.BeamWidth < 0 {
		return fmt.Sprintf("beam_width %d is negative", req.BeamWidth)
	}
	if req.Intention != nil {
		if err := req.Intention.toQoR().Validate(); err != nil {
			return fmt.Sprintf("intention: %v", err)
		}
	}
	return ""
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ReloadRequest
	if r.ContentLength != 0 {
		if err := decodeJSON(w, r, &req); err != nil {
			s.writeError(w, r, http.StatusBadRequest, err.Error())
			return
		}
	}
	prev := s.reg.Version()
	var snap *Snapshot
	var err error
	if req.Path != "" {
		snap, err = s.reg.LoadFile(req.Path)
	} else {
		snap, err = s.reg.Reload()
	}
	if err != nil {
		s.log.Error("model reload failed", "path", req.Path, "err", err,
			"trace_id", obs.TraceIDFrom(r.Context()))
		s.writeError(w, r, http.StatusInternalServerError, err.Error())
		return
	}
	// The response cache self-invalidates (entries are version-stamped and
	// checked on Get), but the outcome store's serve-fed entries carry
	// log-prob score proxies from the replaced weights — drop them so warm
	// starts stop preferring the old model's opinions. Journal-replayed
	// tuner outcomes carry their own version strings and real flow QoR, so
	// they survive.
	if s.cfg.Store != nil && prev != "" && prev != snap.Version {
		if n := s.cfg.Store.Invalidate(prev); n > 0 {
			s.log.Info("retrieval store invalidated", "version", prev, "outcomes", n)
		}
	}
	// Retire the outgoing version's observability state: its per-version
	// metric series leave the registry (bounded label cardinality across
	// arbitrarily many hot reloads) and its SLO scope stops reporting.
	if prev != "" && prev != snap.Version {
		s.met.EvictVersion(prev)
		s.slo.EvictScope(prev)
	}
	s.log.Info("model reloaded", "version", snap.Version, "source", snap.Source)
	writeJSON(w, http.StatusOK, ReloadResponse{
		ModelVersion: snap.Version,
		Source:       snap.Source,
		LoadedAt:     snap.LoadedAt.UTC().Format(time.RFC3339Nano),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		ModelVersion:  s.reg.Version(),
		UptimeSeconds: time.Since(s.met.start).Seconds(),
		QueueDepth:    int(s.gate.Queued()),
	}
	if worst := s.slo.Worst(); worst != slo.StateOK {
		resp.SLO = worst.String()
		resp.Status = "degraded"
	}
	code := http.StatusOK
	if resp.ModelVersion == "" {
		resp.Status = "no model loaded"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// instrument wraps the mux with per-request metrics, span tracing, and
// structured logs. API routes (/v1/...) root a trace whose ID is echoed in
// the X-Trace-Id header, the response body, and the request log; scrape
// and debug routes stay untraced so they don't churn the trace ring.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startAt := time.Now()
		route := normalizeRoute(r.URL.Path)
		traceID := ""
		var span *obs.Span
		if strings.HasPrefix(route, "/v1/") {
			ctx := obs.WithTracer(r.Context(), s.tracer)
			// A fleet router (or any trusted front end) propagates its trace
			// ID in X-Trace-Id; adopting it makes the replica-side spans land
			// under the same trace, so /debug/traces shows the full
			// router→replica path. Invalid IDs are ignored, not trusted.
			if hdr := r.Header.Get("X-Trace-Id"); obs.ValidTraceID(hdr) {
				ctx = obs.WithRemoteTraceID(r.Context(), s.tracer, hdr)
			}
			ctx, span = obs.StartSpan(ctx, r.Method+" "+route)
			traceID = span.TraceID()
			w.Header().Set("X-Trace-Id", traceID)
			r = r.WithContext(ctx)
		}
		rw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rw, r)
		d := time.Since(startAt)
		if strings.HasPrefix(route, "/v1/") {
			// API requests carry full attribution: the served model version
			// labels the by-version latency family (bounded by the version
			// LRU), the trace ID becomes the bucket exemplar, and the SLO
			// engine is fed under both the aggregate and the version scope.
			// The handler reports which version actually decoded via the
			// X-Model-Version response header — during a canary that is the
			// candidate, so the per-version plane measures both arms; the
			// live registry version is only the fallback (errors before a
			// model was chosen, batch responses mixing versions).
			version := rw.Header().Get("X-Model-Version")
			if version == "" {
				version = s.reg.Version()
			}
			if version == "" {
				version = "none"
			}
			s.met.ObserveRequestEx(route, rw.code, d, version, traceID)
			// Only the recommendation path feeds the SLO: a failed admin
			// reload is an operator error, not a burn on the serving
			// objectives.
			if route == "/v1/recommend" || route == "/v1/recommend/batch" {
				s.slo.ObserveRequest(slo.AggregateScope, rw.code, d)
				s.slo.ObserveRequest(version, rw.code, d)
			}
		} else {
			s.met.ObserveRequest(route, rw.code, d)
		}
		if span != nil {
			span.SetAttr("status", strconv.Itoa(rw.code))
			span.End()
		}
		if route != "/metrics" && route != "/healthz" {
			s.log.Info("request",
				"route", route, "method", r.Method, "status", rw.code,
				"duration_ms", float64(d.Microseconds())/1000, "bytes", rw.bytes,
				"remote", r.RemoteAddr, "trace_id", traceID)
		}
	})
}

// normalizeRoute keeps the metrics label space bounded.
func normalizeRoute(p string) string {
	switch {
	case p == "/v1/recommend", p == "/v1/recommend/batch", p == "/v1/models/reload", p == "/healthz", p == "/metrics":
		return p
	case strings.HasPrefix(p, "/v1/"):
		return "/v1/other"
	default:
		return "other"
	}
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// errStatus maps admission/registry errors to HTTP codes.
func errStatus(err error) int {
	switch {
	case errors.Is(err, errNonFinite):
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBackend):
		return http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, ErrNoModel), errors.Is(err, ErrShutdown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

type errorResponse struct {
	Error string `json:"error"`
	// TraceID lets a failed request be looked up at /debug/traces?id=.
	TraceID string `json:"trace_id,omitempty"`
	// ModelVersion is the live model at the time of the error, so a 429 or
	// timeout during a hot-swap is attributable to a specific version.
	ModelVersion string `json:"model_version,omitempty"`
}

func (s *Server) writeError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	traceID := obs.TraceIDFrom(r.Context())
	// Honor a version the handler already attributed (X-Model-Version) so
	// a candidate-routed failure is reported against the candidate, not
	// the live model it never touched.
	version := w.Header().Get("X-Model-Version")
	if version == "" {
		version = s.reg.Version()
	}
	if code >= http.StatusInternalServerError || code == http.StatusTooManyRequests {
		s.log.Warn("request rejected",
			"route", normalizeRoute(r.URL.Path), "status", code, "err", msg,
			"trace_id", traceID, "model_version", version)
	}
	writeJSON(w, code, errorResponse{Error: msg, TraceID: traceID, ModelVersion: version})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid JSON body: %w", err)
	}
	return nil
}
