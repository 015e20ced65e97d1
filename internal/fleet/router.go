package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"insightalign/internal/obs"
	"insightalign/internal/obs/slo"
	"insightalign/internal/retrieve"
)

// Config parameterizes a Router. Start from DefaultConfig.
type Config struct {
	// Addr is the router's listen address (":8090").
	Addr string
	// Replicas are the backend base URLs ("http://127.0.0.1:8081", ...).
	Replicas []string
	// MaxInflight bounds concurrent forwards per replica.
	MaxInflight int
	// QueueDepth bounds waiters per replica beyond MaxInflight; past it
	// the replica counts as saturated.
	QueueDepth int
	// QueueWait is the longest a request waits for an admission slot
	// before the fleet is declared saturated.
	QueueWait time.Duration
	// RequestTimeout is the end-to-end routed request deadline.
	RequestTimeout time.Duration
	// MaxAttempts bounds failover: how many distinct replicas one
	// request may be sent to, hedges excluded (clamped to the fleet
	// size).
	MaxAttempts int
	// DisableHedging turns the hedged-request path off; tests use it to
	// keep per-replica hit counts deterministic.
	DisableHedging bool
	// HealthInterval is the /healthz polling period.
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (zero: HealthInterval).
	HealthTimeout time.Duration
	// EjectAfter is how many consecutive failed health polls eject a
	// replica from the ring (rebalancing its keys to the survivors);
	// one successful poll re-adds it.
	EjectAfter int
	// Breaker configures the per-replica circuit breaker, the only one
	// on a request's path: observed forward failures open it and the
	// replica is skipped until its probes succeed.
	Breaker BreakerConfig
	// Logger receives structured router logs; nil means slog.Default().
	Logger *slog.Logger
	// Metrics is the registry the fleet metric families bind into; nil
	// means the process-wide obs.Default().
	Metrics *obs.Registry
	// Tracer assigns and retains request traces; nil means the
	// process-wide obs.DefaultTracer().
	Tracer *obs.Tracer
	// SLO is the fleet burn-rate objective engine: the router's
	// end-to-end recommendation outcomes feed its "all" aggregate scope
	// and every forward attempt feeds the owning replica's scope, so
	// /debug/slo on the router reports both the fleet-wide verdict and a
	// per-replica breakdown. nil builds a default engine.
	SLO *slo.Engine
	// Profiler, if non-nil, is the continuous-profiling ring indexed at
	// /debug/profiles; lifecycle owned by the caller.
	Profiler *obs.Profiler
}

// Fixed routing parameters. None is a Config field: no deployment or test
// has needed another value.
const (
	// vnodesPerReplica is the consistent-hash ring's virtual nodes per
	// replica, enough to keep 3-replica shares within ~10% of uniform.
	vnodesPerReplica = 64
	// loadFactor is the bounded-load consistent-hashing factor c: a
	// replica whose in-flight count exceeds c * (fleet inflight / healthy
	// replicas) + 1 is skipped in favor of the next replica in ring
	// order, so one hot design cannot melt its owner.
	loadFactor = 1.25
	// hedgeQuantile is the latency percentile of recent successful
	// forwards that arms the hedge timer.
	hedgeQuantile = 0.95
	// hedgeMinDelay floors the hedge trigger so a cold or very fast
	// fleet does not hedge every request.
	hedgeMinDelay = 5 * time.Millisecond
	// hedgeMaxConcurrent caps in-flight hedges fleet-wide; beyond it
	// hedges are denied, not queued.
	hedgeMaxConcurrent = 8
	// latencyWindow is how many recent forward latencies feed the hedge
	// trigger percentile.
	latencyWindow = 512
	// scrapeTimeout bounds one replica /metrics fetch for the fleet
	// roll-up endpoints.
	scrapeTimeout = 2 * time.Second
)

// DefaultConfig returns the routing defaults; it is the only place they
// are written.
func DefaultConfig() Config {
	return Config{
		Addr:           ":8090",
		MaxInflight:    32,
		QueueDepth:     64,
		QueueWait:      100 * time.Millisecond,
		RequestTimeout: 15 * time.Second,
		MaxAttempts:    3,
		HealthInterval: 500 * time.Millisecond,
		EjectAfter:     3,
		Breaker: BreakerConfig{
			Window:         16,
			MinSamples:     4,
			FailureRatio:   0.5,
			Cooldown:       2 * time.Second,
			HalfOpenProbes: 2,
		},
	}
}

// Router is the fleet front end: consistent-hash routing with bounded
// load, per-replica health + breaker gating, hedged requests, bounded
// admission, and cross-hop trace propagation.
type Router struct {
	cfg    Config
	ring   *Ring
	reps   map[string]*Replica
	ids    []string // configured membership, stable order
	met    *Metrics
	lat    *latWindow
	slo    *slo.Engine
	prof   *obs.Profiler
	client *http.Client
	tracer *obs.Tracer
	log    *slog.Logger

	hedgeSem chan struct{}

	httpSrv  *http.Server
	ln       net.Listener
	stopc    chan struct{}
	wg       sync.WaitGroup // health loop
	shutOnce sync.Once
}

// New builds a Router over the configured replica set and starts its
// health-polling loop; callers must Shutdown to stop it. Unset limits
// take their DefaultConfig values.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	def := DefaultConfig()
	if cfg.MaxInflight < 1 {
		cfg.MaxInflight = def.MaxInflight
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = def.QueueWait
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = def.HealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = cfg.HealthInterval
	}
	if cfg.EjectAfter < 1 {
		cfg.EjectAfter = def.EjectAfter
	}
	if b := &cfg.Breaker; !b.Disabled {
		if b.Window < 1 {
			b.Window = def.Breaker.Window
		}
		if b.MinSamples < 1 {
			b.MinSamples = def.Breaker.MinSamples
		}
		b.MinSamples = min(b.MinSamples, b.Window)
		if b.FailureRatio <= 0 || b.FailureRatio > 1 {
			b.FailureRatio = def.Breaker.FailureRatio
		}
		if b.Cooldown <= 0 {
			b.Cooldown = def.Breaker.Cooldown
		}
		if b.HalfOpenProbes < 1 {
			b.HalfOpenProbes = def.Breaker.HalfOpenProbes
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.DefaultTracer()
	}
	if cfg.SLO == nil {
		cfg.SLO = slo.New(slo.Config{MaxScopes: len(cfg.Replicas) + 4})
	}
	rt := &Router{
		cfg:      cfg,
		ring:     NewRing(vnodesPerReplica),
		reps:     make(map[string]*Replica, len(cfg.Replicas)),
		met:      NewMetrics(cfg.Metrics),
		lat:      newLatWindow(),
		slo:      cfg.SLO,
		prof:     cfg.Profiler,
		tracer:   cfg.Tracer,
		log:      cfg.Logger,
		hedgeSem: make(chan struct{}, hedgeMaxConcurrent),
		stopc:    make(chan struct{}),
	}
	for _, raw := range cfg.Replicas {
		id := strings.TrimRight(raw, "/")
		if id == "" {
			return nil, fmt.Errorf("fleet: empty replica URL")
		}
		if _, dup := rt.reps[id]; dup {
			return nil, fmt.Errorf("fleet: duplicate replica %q", id)
		}
		rt.reps[id] = newReplica(id, cfg.MaxInflight, cfg.QueueDepth, cfg.Breaker,
			func(from, to BreakerState) {
				rt.met.ObserveBreakerTransition(id, from, to)
				rt.log.Warn("replica breaker transition", "replica", id, "from", from.String(), "to", to.String())
			})
		rt.ids = append(rt.ids, id)
		rt.met.SetReplicaUp(id, true)
	}
	if rt.ring.Set(rt.ids) {
		rt.met.ObserveRebuild()
	}
	rt.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 128,
		IdleConnTimeout:     60 * time.Second,
	}}
	rt.httpSrv = &http.Server{Addr: cfg.Addr, Handler: rt.Handler()}
	rt.wg.Add(1)
	go rt.healthLoop()
	return rt, nil
}

// Metrics exposes the router's metric bridge.
func (rt *Router) Metrics() *Metrics { return rt.met }

// Ring exposes the consistent-hash ring (tests, /healthz).
func (rt *Router) Ring() *Ring { return rt.ring }

// Replica returns the state of one configured replica (nil if unknown).
func (rt *Router) Replica(id string) *Replica { return rt.reps[strings.TrimRight(id, "/")] }

// Handler returns the router's full route mux wrapped in metrics +
// tracing middleware.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/recommend", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, "/v1/recommend")
	})
	mux.HandleFunc("/v1/recommend/batch", func(w http.ResponseWriter, r *http.Request) {
		rt.proxy(w, r, "/v1/recommend/batch")
	})
	mux.HandleFunc("/v1/models/reload", rt.handleReload)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	obs.RegisterDebug(mux, rt.met.Registry(), rt.tracer)
	mux.Handle("/debug/slo", rt.slo.Handler())
	mux.HandleFunc("/debug/fleet", rt.handleFleetMetrics)
	mux.HandleFunc("/debug/dash", rt.handleDash)
	if rt.prof != nil {
		mux.Handle("/debug/profiles", rt.prof.Handler())
	}
	return rt.instrument(mux)
}

// Start listens on cfg.Addr and serves until Shutdown.
func (rt *Router) Start() (<-chan error, error) {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return nil, err
	}
	rt.ln = ln
	errc := make(chan error, 1)
	go func() {
		if err := rt.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	rt.log.Info("fleet router serving", "addr", ln.Addr().String(), "replicas", len(rt.ids))
	return errc, nil
}

// Addr returns the bound listen address (useful with Addr ":0").
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return rt.cfg.Addr
	}
	return rt.ln.Addr().String()
}

// Shutdown stops the health loop and drains the HTTP server.
func (rt *Router) Shutdown(ctx context.Context) error {
	var err error
	rt.shutOnce.Do(func() {
		close(rt.stopc)
		rt.wg.Wait()
		err = rt.httpSrv.Shutdown(ctx)
		rt.log.Info("fleet router shut down", "err", err)
	})
	return err
}

// Forward outcome classes (the fleet_forward_total outcome label).
const (
	outcomeOK          = "ok"
	outcomeClientError = "client_error"  // replica 4xx (not 429): caller's fault, replica healthy
	outcomeSaturated   = "saturated"     // replica 429: load signal, not ill-health
	outcomeUnavailable = "unavailable"   // replica 503: cannot serve now
	outcomeBackendErr  = "backend_error" // replica 5xx
	outcomeTransport   = "transport"     // connection-level failure
	outcomeTimeout     = "timeout"       // routed request deadline expired in flight
	outcomeCanceled    = "canceled"      // context canceled (hedge loser or client gone)
)

// attemptResult is one forward attempt's outcome.
type attemptResult struct {
	replica string
	status  int
	header  http.Header
	body    []byte
	outcome string
	err     error
	hedge   bool
}

// terminal reports whether the result should be returned to the client
// as-is rather than failed over to another replica.
func (a attemptResult) terminal() bool {
	switch a.outcome {
	case outcomeOK, outcomeClientError, outcomeTimeout, outcomeCanceled:
		return true
	}
	return false
}

// maxBodyBytes bounds both the client request body and the relayed
// replica response body.
const maxBodyBytes = 8 << 20

// proxy is the shared /v1/recommend and /v1/recommend/batch front end:
// read the body, derive the consistent-hash key from the insight
// vector(s), and forward with failover + hedging.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodPost {
		rt.writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	key, err := routingKey(path, body)
	if err != nil {
		// Reject unparseable JSON at the router: no replica could serve it,
		// so spending a forward (and a breaker sample) on it is waste.
		rt.writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	defer cancel()
	res := rt.forward(ctx, path, key, body)
	rt.writeResult(w, r, res)
}

// routingKey extracts the affinity key from a request body: the insight
// fingerprint for singles, the folded element fingerprints for batches.
func routingKey(path string, body []byte) (uint64, error) {
	if path == "/v1/recommend/batch" {
		var req struct {
			Requests []struct {
				Insight []float64 `json:"insight"`
			} `json:"requests"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return 0, fmt.Errorf("invalid JSON body: %v", err)
		}
		ivs := make([][]float64, len(req.Requests))
		for i := range req.Requests {
			ivs[i] = req.Requests[i].Insight
		}
		return FingerprintBatch(ivs), nil
	}
	var req struct {
		Insight []float64 `json:"insight"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, fmt.Errorf("invalid JSON body: %v", err)
	}
	return retrieve.Fingerprint(req.Insight), nil
}

// shedResult is the terminal "nowhere to send this" outcome.
type shedResult struct {
	reason string
	wait   time.Duration
}

// forward routes one request: walk the ring order from the key's owner,
// skipping unhealthy / breaker-open / overloaded replicas, hedging the
// first attempt when it runs past the latency trigger, and failing over
// across distinct replicas on retryable outcomes.
func (rt *Router) forward(ctx context.Context, path string, key uint64, body []byte) attemptResult {
	order := rt.ring.Order(key, 0)
	if len(order) == 0 {
		rt.met.ObserveShed("no_replicas")
		return attemptResult{outcome: "shed", err: errShed{shedResult{reason: "no_replicas", wait: rt.cfg.HealthInterval}}}
	}
	traceID := obs.TraceIDFrom(ctx)
	tried := make(map[string]bool, len(order))
	attempts := rt.cfg.MaxAttempts
	if attempts > len(order) {
		attempts = len(order)
	}
	var last attemptResult
	sent := false
	for a := 0; a < attempts && ctx.Err() == nil; a++ {
		pk, reason, wait := rt.pick(ctx, order, tried, a == 0)
		if pk == nil {
			if !sent {
				rt.met.ObserveShed(reason)
				return attemptResult{outcome: "shed", err: errShed{shedResult{reason: reason, wait: wait}}}
			}
			break
		}
		sent = true
		tried[pk.rep.id] = true
		res := rt.attemptWithHedge(ctx, pk, order, tried, path, traceID, body, a == 0)
		if res.terminal() {
			return res
		}
		last = res
	}
	if last.outcome == "" {
		last = attemptResult{outcome: outcomeTransport, err: ctx.Err()}
	}
	return last
}

// errShed carries the shed reason + Retry-After hint through attemptResult.
type errShed struct{ shedResult }

func (e errShed) Error() string { return "fleet: shed: " + e.reason }

// picked is an acquired (slot, breaker-admission) pair for one replica.
type picked struct {
	rep *Replica
	adm Admission
}

// pick selects the next replica in ring order that is healthy, not
// already tried, breaker-admitted, and under the bounded-load limit with
// a free slot. A second pass relaxes the load bound, and (when allowQueue
// is set) a third pass waits up to QueueWait on an admission slot. A nil
// return means the fleet cannot take this request: the reason and a
// Retry-After hint accompany it.
func (rt *Router) pick(ctx context.Context, order []string, tried map[string]bool, allowQueue bool) (*picked, string, time.Duration) {
	var brkWait time.Duration
	sawHealthy, sawBreakerOnly := false, true
	for pass := 0; pass < 2; pass++ {
		limit := rt.loadLimit()
		for _, id := range order {
			rep := rt.reps[id]
			if tried[id] || !rep.healthy.Load() {
				continue
			}
			sawHealthy = true
			if pass == 0 && rep.gate.Inflight() > limit {
				continue
			}
			if !rep.gate.TryAcquire() {
				sawBreakerOnly = false
				continue
			}
			adm, ok, wait := rep.allow()
			if !ok {
				rep.gate.Release()
				if wait > brkWait {
					brkWait = wait
				}
				continue
			}
			return &picked{rep: rep, adm: adm}, "", 0
		}
	}
	if allowQueue {
		for _, id := range order {
			rep := rt.reps[id]
			if tried[id] || !rep.healthy.Load() {
				continue
			}
			adm, ok, wait := rep.allow()
			if !ok {
				if wait > brkWait {
					brkWait = wait
				}
				continue
			}
			qctx, cancel := context.WithTimeout(ctx, rt.cfg.QueueWait)
			err := rep.gate.Acquire(qctx)
			cancel()
			if err == nil {
				return &picked{rep: rep, adm: adm}, "", 0
			}
			rep.releaseAdmission(adm)
			sawBreakerOnly = false
		}
	}
	switch {
	case !sawHealthy:
		return nil, "no_replicas", rt.cfg.HealthInterval
	case sawBreakerOnly && brkWait > 0:
		return nil, "breaker_open", brkWait
	default:
		return nil, "saturated", rt.cfg.QueueWait
	}
}

// pickHedge is pick without queueing, for the hedge leg: a distinct,
// healthy, breaker-admitted replica with a free slot, or nil.
func (rt *Router) pickHedge(order []string, tried map[string]bool) *picked {
	for _, id := range order {
		rep := rt.reps[id]
		if tried[id] || !rep.healthy.Load() || !rep.gate.TryAcquire() {
			continue
		}
		adm, ok, _ := rep.allow()
		if !ok {
			rep.gate.Release()
			continue
		}
		return &picked{rep: rep, adm: adm}
	}
	return nil
}

// loadLimit is the bounded-load cap: loadFactor times the mean in-flight
// per healthy replica, plus one so an idle fleet is never starved.
func (rt *Router) loadLimit() int64 {
	var total, healthy int64
	for _, rep := range rt.reps {
		total += rep.gate.Inflight()
		if rep.healthy.Load() {
			healthy++
		}
	}
	if healthy == 0 {
		healthy = 1
	}
	return int64(loadFactor*float64(total)/float64(healthy)) + 1
}

// attemptWithHedge sends to the picked replica and, when the response
// runs past the hedge trigger (and hedging is enabled for this attempt),
// races a second replica: first usable response wins and the loser's
// context is canceled. Hedges are capped by hedgeMaxConcurrent.
func (rt *Router) attemptWithHedge(ctx context.Context, primary *picked, order []string, tried map[string]bool, path, traceID string, body []byte, mayHedge bool) attemptResult {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan attemptResult, 2)
	go func() { resc <- rt.send(actx, primary, path, traceID, body, false) }()
	if !mayHedge || rt.cfg.DisableHedging || len(order) < 2 {
		return <-resc
	}
	timer := time.NewTimer(rt.hedgeDelay())
	defer timer.Stop()
	select {
	case res := <-resc:
		return res
	case <-timer.C:
	}
	// The primary is slow past the trigger: race a hedge if the cap and a
	// spare replica allow.
	var hp *picked
	select {
	case rt.hedgeSem <- struct{}{}:
		if hp = rt.pickHedge(order, tried); hp == nil {
			<-rt.hedgeSem
		}
	default:
	}
	if hp == nil {
		rt.met.ObserveHedge("denied")
		return <-resc
	}
	tried[hp.rep.id] = true
	rt.met.HedgeStarted()
	go func() {
		resc <- rt.send(actx, hp, path, traceID, body, true)
		<-rt.hedgeSem
		rt.met.HedgeFinished()
	}()
	first := <-resc
	if !first.terminal() {
		// The first responder failed; the other leg is still live and may
		// yet deliver.
		second := <-resc
		if !second.terminal() {
			rt.met.ObserveHedge("lost")
			return first
		}
		first = second
	} else {
		cancel() // the loser's send classifies as canceled and releases
	}
	if first.hedge {
		rt.met.ObserveHedge("won")
	} else {
		rt.met.ObserveHedge("lost")
	}
	return first
}

// hedgeDelay is the current hedge trigger: the latency window's
// hedgeQuantile, floored at hedgeMinDelay.
func (rt *Router) hedgeDelay() time.Duration {
	return max(rt.lat.Percentile(hedgeQuantile), hedgeMinDelay)
}

// send forwards the body to one replica, classifies the outcome, feeds
// the replica's breaker and the hedge latency window, and releases the
// admission slot. The X-Trace-Id header carries the trace across the hop.
func (rt *Router) send(ctx context.Context, pk *picked, path, traceID string, body []byte, hedge bool) attemptResult {
	rep := pk.rep
	defer func() {
		rep.gate.Release()
		rt.met.SetInflight(rep.id, rep.gate.Inflight(), rep.gate.Queued())
	}()
	rt.met.SetInflight(rep.id, rep.gate.Inflight(), rep.gate.Queued())
	_, span := obs.StartSpan(ctx, "forward")
	span.SetAttr("replica", rep.id)
	if hedge {
		span.SetAttr("hedge", "true")
	}
	res := attemptResult{replica: rep.id, hedge: hedge}
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.id+path, bytes.NewReader(body))
	if err != nil {
		res.outcome, res.err = outcomeTransport, err
	} else {
		req.Header.Set("Content-Type", "application/json")
		if traceID != "" {
			req.Header.Set("X-Trace-Id", traceID)
		}
		resp, err := rt.client.Do(req)
		if err != nil {
			res.err = err
			switch {
			case errors.Is(ctx.Err(), context.Canceled):
				res.outcome = outcomeCanceled
			case errors.Is(ctx.Err(), context.DeadlineExceeded):
				res.outcome = outcomeTimeout
			default:
				res.outcome = outcomeTransport
			}
		} else {
			res.status = resp.StatusCode
			res.header = resp.Header
			res.body, res.err = io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
			resp.Body.Close()
			switch {
			case res.err != nil:
				res.outcome = outcomeTransport
			case resp.StatusCode < 400:
				res.outcome = outcomeOK
			case resp.StatusCode == http.StatusTooManyRequests:
				res.outcome = outcomeSaturated
			case resp.StatusCode == http.StatusServiceUnavailable:
				res.outcome = outcomeUnavailable
			case resp.StatusCode < 500:
				res.outcome = outcomeClientError
			default:
				res.outcome = outcomeBackendErr
			}
		}
	}
	dur := time.Since(t0)
	// Breaker classification: 2xx and non-429 4xx prove the replica is
	// answering; 5xx, 503, transport failures, and deadline expiries are
	// ill-health; 429 is load and hedge-loss cancels are our own doing —
	// neither says anything about replica health.
	switch res.outcome {
	case outcomeOK, outcomeClientError:
		rep.record(pk.adm, true)
		if res.outcome == outcomeOK {
			rt.lat.Add(dur)
		}
	case outcomeSaturated, outcomeCanceled:
		rep.releaseAdmission(pk.adm)
	default:
		rep.record(pk.adm, false)
	}
	rt.met.ObserveForward(rep.id, res.outcome)
	// Per-replica SLO scope: each forward's outcome lands under the
	// replica that served (or failed) it. Cancels are the router's own
	// doing (hedge losers, departed clients) and say nothing about the
	// replica, so they are excluded — like 5xx on the latency SLI.
	if res.outcome != outcomeCanceled {
		code := res.status
		if code == 0 {
			if res.outcome == outcomeTimeout {
				code = http.StatusGatewayTimeout
			} else {
				code = http.StatusBadGateway
			}
		}
		rt.slo.ObserveRequest(rep.id, code, dur)
	}
	span.SetAttr("outcome", res.outcome)
	if res.status != 0 {
		span.SetAttr("status", strconv.Itoa(res.status))
	}
	span.End()
	return res
}

// writeResult relays a terminal attempt to the client.
func (rt *Router) writeResult(w http.ResponseWriter, r *http.Request, res attemptResult) {
	var sh errShed
	switch {
	case errors.As(res.err, &sh):
		w.Header().Set("Retry-After", strconv.Itoa(int(sh.wait/time.Second)+1))
		rt.writeError(w, r, http.StatusServiceUnavailable, "fleet "+sh.reason+": retry later")
	case res.outcome == outcomeTimeout:
		rt.writeError(w, r, http.StatusGatewayTimeout, "fleet: routed request deadline exceeded")
	case res.outcomeIsRelayable():
		for _, h := range []string{"Content-Type", "Retry-After"} {
			if v := res.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.Header().Set("X-Fleet-Replica", res.replica)
		w.WriteHeader(res.status)
		w.Write(res.body)
	case res.outcome == outcomeCanceled:
		rt.writeError(w, r, 499, "client closed request")
	default:
		// Every attempt failed over and the budget is spent.
		msg := "fleet: all replica attempts failed"
		if res.err != nil {
			msg = fmt.Sprintf("%s: last error: %v", msg, res.err)
		} else if res.status != 0 {
			msg = fmt.Sprintf("%s: last status: %d from %s", msg, res.status, res.replica)
		}
		rt.writeError(w, r, http.StatusBadGateway, msg)
	}
}

// outcomeIsRelayable reports whether the attempt carries a replica
// response the client should see verbatim. A 429 or 503 that is still
// the outcome once failover is spent means the whole fleet is saturated
// or unavailable: the client gets that answer and its Retry-After, not a
// 502.
func (a attemptResult) outcomeIsRelayable() bool {
	switch a.outcome {
	case outcomeOK, outcomeClientError, outcomeSaturated, outcomeUnavailable:
		return true
	}
	return false
}

// ReloadVerdict is one replica's outcome of a fleet-wide reload fan-out.
type ReloadVerdict struct {
	Replica string          `json:"replica"`
	Status  int             `json:"status"`
	Body    json.RawMessage `json:"body,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// FanoutReload POSTs /v1/models/reload to every configured replica
// (regardless of health — an operator reloading weights wants the whole
// fleet to converge) and reports each replica's verdict. Exported so the
// checkpoint lifecycle's promotion hook can converge the fleet onto a
// freshly promoted checkpoint through the same path operators use.
func (rt *Router) FanoutReload(ctx context.Context, body []byte) []ReloadVerdict {
	verdicts := make([]ReloadVerdict, len(rt.ids))
	var wg sync.WaitGroup
	for i, id := range rt.ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			v := ReloadVerdict{Replica: id}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, id+"/v1/models/reload", bytes.NewReader(body))
			if err != nil {
				v.Error = err.Error()
				verdicts[i] = v
				return
			}
			if len(body) > 0 {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				v.Error = err.Error()
				verdicts[i] = v
				return
			}
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
			resp.Body.Close()
			v.Status = resp.StatusCode
			if json.Valid(raw) {
				v.Body = raw
			}
			verdicts[i] = v
		}(i, id)
	}
	wg.Wait()
	return verdicts
}

// handleReload is the HTTP face of FanoutReload.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, r, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		rt.writeError(w, r, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		return
	}
	verdicts := rt.FanoutReload(r.Context(), body)
	code := http.StatusOK
	for _, v := range verdicts {
		if v.Error != "" || v.Status != http.StatusOK {
			code = http.StatusBadGateway
		}
	}
	writeJSON(w, code, map[string]any{"results": verdicts})
}

// ReplicaHealth is one replica's row in the router's /healthz.
type ReplicaHealth struct {
	URL      string `json:"url"`
	Up       bool   `json:"up"`
	InRing   bool   `json:"in_ring"`
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
}

// HealthResponse is the router's /healthz body.
type HealthResponse struct {
	Status       string          `json:"status"` // ok | degraded | down
	Replicas     []ReplicaHealth `json:"replicas"`
	RingMembers  int             `json:"ring_members"`
	RingRebuilds uint64          `json:"ring_rebuilds"`
	// SLO is the worst current fleet burn-rate verdict ("ok" / "warn" /
	// "page"); anything past ok degrades Status while the response stays
	// HTTP 200.
	SLO string `json:"slo,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	members := map[string]bool{}
	for _, id := range rt.ring.Members() {
		members[id] = true
	}
	resp := HealthResponse{RingMembers: len(members), RingRebuilds: rt.ring.Rebuilds()}
	up := 0
	for _, id := range rt.ids {
		rep := rt.reps[id]
		h := rep.healthy.Load()
		if h {
			up++
		}
		resp.Replicas = append(resp.Replicas, ReplicaHealth{
			URL: id, Up: h, InRing: members[id],
			Breaker:  rep.BreakerState().String(),
			Inflight: rep.gate.Inflight(),
			Queued:   rep.gate.Queued(),
		})
	}
	code := http.StatusOK
	switch {
	case up == len(rt.ids):
		resp.Status = "ok"
	case up > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "down"
		code = http.StatusServiceUnavailable
	}
	if worst := rt.slo.Worst(); worst != slo.StateOK {
		resp.SLO = worst.String()
		if resp.Status == "ok" {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, code, resp)
}

// instrument mirrors serve's middleware for the router: API routes root a
// trace (adopting a trusted upstream X-Trace-Id when present), and every
// request lands in the fleet request metrics and the structured log.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		startAt := time.Now()
		route := normalizeRoute(r.URL.Path)
		traceID := ""
		var span *obs.Span
		if strings.HasPrefix(route, "/v1/") {
			ctx := obs.WithTracer(r.Context(), rt.tracer)
			if hdr := r.Header.Get("X-Trace-Id"); obs.ValidTraceID(hdr) {
				ctx = obs.WithRemoteTraceID(r.Context(), rt.tracer, hdr)
			}
			ctx, span = obs.StartSpan(ctx, r.Method+" "+route+" (router)")
			traceID = span.TraceID()
			w.Header().Set("X-Trace-Id", traceID)
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		d := time.Since(startAt)
		rt.met.ObserveRequestEx(route, sw.code, d, traceID)
		// The aggregate scope sees the end-to-end outcome — what the
		// client experienced after failover and hedging — so a recovered
		// forward failure does not burn the fleet-wide SLO.
		if route == "/v1/recommend" || route == "/v1/recommend/batch" {
			rt.slo.ObserveRequest(slo.AggregateScope, sw.code, d)
		}
		if span != nil {
			span.SetAttr("status", strconv.Itoa(sw.code))
			span.End()
		}
		if route != "/metrics" && route != "/healthz" {
			rt.log.Info("routed request",
				"route", route, "method", r.Method, "status", sw.code,
				"duration_ms", float64(d.Microseconds())/1000,
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
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

func (rt *Router) writeError(w http.ResponseWriter, r *http.Request, code int, msg string) {
	traceID := obs.TraceIDFrom(r.Context())
	if code >= http.StatusInternalServerError {
		rt.log.Warn("routed request rejected",
			"route", normalizeRoute(r.URL.Path), "status", code, "err", msg, "trace_id", traceID)
	}
	writeJSON(w, code, errorResponse{Error: msg, TraceID: traceID})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
