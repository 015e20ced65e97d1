package serve

import (
	"strconv"
	"sync"
	"time"

	"insightalign/internal/obs"
)

// Histogram bounds for the serving metrics: request latency in seconds and
// requests per decoder call.
var (
	latencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	batchBounds   = []float64{1, 2, 4, 8, 16, 32, 64}
	// qorBounds bucket the per-recommendation decoder log-probability — the
	// serving tier's QoR proxy. Log-probs are ≤ 0, so the bounds ascend
	// through the negative range toward the "confident" 0 bucket.
	qorBounds = []float64{-64, -32, -16, -8, -4, -2, -1, -0.5, -0.25, 0}
)

// maxVersionLabels bounds the model_version label cardinality on the
// per-version families: only this many live versions keep series at once,
// and rolling past the bound prunes the least-recently-observed version's
// series from the registry.
const maxVersionLabels = 8

// Metrics bridges the serving subsystem into an obs.Registry (the
// process-wide one by default), keeping the historical insightalign_*
// metric names: request counts and latency histograms by route, the
// requests-per-decoder-call histogram, admission waiters, rejection counts
// by reason, and the live model version. All methods are safe for
// concurrent use.
type Metrics struct {
	reg   *obs.Registry
	start time.Time

	requests     *obs.Counter   // insightalign_requests_total{route,code}
	latency      *obs.Histogram // insightalign_request_duration_seconds{route}
	latencyByVer *obs.Histogram // insightalign_request_duration_by_version_seconds{route,model_version}
	qor          *obs.Histogram // insightalign_qor_logprob{model_version}
	batch        *obs.Histogram // insightalign_batch_size
	rejections   *obs.Counter   // insightalign_rejections_total{reason}
	cache        *obs.Counter   // insightalign_serve_cache_requests_total{result}

	mu       sync.Mutex
	versions []string // live model_version labels, least-recently-observed first
}

// NewMetrics binds the serving metric families in reg (nil: the
// process-wide obs.Default()). queueDepth and modelVersion are sampled at
// scrape time; either may be nil.
func NewMetrics(reg *obs.Registry, queueDepth func() int, modelVersion func() string) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	m := &Metrics{
		reg:   reg,
		start: time.Now(),
		requests: reg.Counter("insightalign_requests_total",
			"Completed HTTP requests by route and status code.", "route", "code"),
		latency: reg.Histogram("insightalign_request_duration_seconds",
			"HTTP request latency by route.", latencyBounds, "route"),
		latencyByVer: reg.Histogram("insightalign_request_duration_by_version_seconds",
			"HTTP request latency by route and model version (bounded cardinality).",
			latencyBounds, "route", "model_version"),
		qor: reg.Histogram("insightalign_qor_logprob",
			"Per-recommendation decoder log-probability (QoR proxy) by model version.",
			qorBounds, "model_version"),
		batch: reg.Histogram("insightalign_batch_size",
			"Requests per decoder call (1: every request decodes on its own).", batchBounds),
		rejections: reg.Counter("insightalign_rejections_total",
			"Rejected requests by reason.", "reason"),
		cache: reg.Counter("insightalign_serve_cache_requests_total",
			"Response-cache lookups by result (hit, miss, bypass).", "result"),
	}
	reg.GaugeFunc("insightalign_uptime_seconds",
		"Time since the process-wide metrics registry was created.",
		func() float64 { return time.Since(m.start).Seconds() })
	if queueDepth != nil {
		reg.GaugeFunc("insightalign_queue_depth",
			"Requests waiting for an admission slot.",
			func() float64 { return float64(queueDepth()) })
	}
	if modelVersion != nil {
		reg.InfoFunc("insightalign_model_info",
			"Currently served model version (value is always 1).",
			"version", modelVersion)
	}
	return m
}

// Registry returns the obs registry this bridge writes into.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveRequest records one completed HTTP request.
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.ObserveRequestEx(route, code, d, "", "")
}

// ObserveRequestEx records one completed HTTP request with optional
// per-version attribution and an optional exemplar trace ID. version ""
// skips the by-version family; traceID "" records plain observations.
func (m *Metrics) ObserveRequestEx(route string, code int, d time.Duration, version, traceID string) {
	m.requests.Inc(route, strconv.Itoa(code))
	m.latency.ObserveEx(d.Seconds(), traceID, route)
	if version != "" {
		m.touchVersion(version)
		m.latencyByVer.ObserveEx(d.Seconds(), traceID, route, version)
	}
}

// ObserveQoR records one recommendation's decoder log-probability under
// its model version — the serving tier's quality-of-result proxy.
func (m *Metrics) ObserveQoR(version string, logProb float64) {
	if version == "" {
		return
	}
	m.touchVersion(version)
	m.qor.Observe(logProb, version)
}

// touchVersion marks a model version live in the bounded label LRU; when
// the LRU overflows, the stalest version's per-version series are pruned
// from the registry so label cardinality cannot grow without bound across
// many hot reloads.
func (m *Metrics) touchVersion(version string) {
	m.mu.Lock()
	evicted := ""
	for i, v := range m.versions {
		if v == version {
			m.versions = append(append(m.versions[:i:i], m.versions[i+1:]...), version)
			m.mu.Unlock()
			return
		}
	}
	m.versions = append(m.versions, version)
	if len(m.versions) > maxVersionLabels {
		evicted = m.versions[0]
		m.versions = append([]string(nil), m.versions[1:]...)
	}
	m.mu.Unlock()
	if evicted != "" {
		m.pruneVersion(evicted)
	}
}

// EvictVersion drops one model version from the label LRU and prunes its
// per-version series — the hot-reload hook for the outgoing version.
func (m *Metrics) EvictVersion(version string) {
	if version == "" {
		return
	}
	m.mu.Lock()
	for i, v := range m.versions {
		if v == version {
			m.versions = append(m.versions[:i:i], m.versions[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	m.pruneVersion(version)
}

// LiveVersions returns the bounded set of model versions currently
// holding per-version series, least-recently-observed first.
func (m *Metrics) LiveVersions() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.versions...)
}

func (m *Metrics) pruneVersion(version string) {
	m.latencyByVer.Prune(func(lv []string) bool { return len(lv) == 2 && lv[1] == version })
	m.qor.Prune(func(lv []string) bool { return len(lv) == 1 && lv[0] == version })
}

// ObserveBatch records one decoder call and how many requests it served.
func (m *Metrics) ObserveBatch(size int) {
	m.batch.Observe(float64(size))
}

// ObserveRejection records one rejected request ("queue_full",
// "deadline", "shutdown", "no_model").
func (m *Metrics) ObserveRejection(reason string) {
	m.rejections.Inc(reason)
}

// ObserveCache records one response-cache lookup outcome: "hit" (served
// without a decoder call), "miss" (decoded, then cached), or "bypass"
// (cache unusable for this request — no model yet, or a non-finite
// insight vector whose fingerprint sentinels would alias distinct
// inputs).
func (m *Metrics) ObserveCache(result string) {
	m.cache.Inc(result)
}

// Exposition renders the backing registry's metrics page.
func (m *Metrics) Exposition() string { return m.reg.Exposition() }
