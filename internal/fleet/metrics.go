package fleet

import (
	"strconv"
	"time"

	"insightalign/internal/obs"
)

// Histogram bounds: end-to-end routed latency in seconds.
var routedLatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Metrics bridges the fleet router into an obs.Registry under the
// insightalign_fleet_* namespace: per-replica in-flight and health
// gauges, forward outcomes, hedge counters, ring rebalances, breaker
// transitions, and shed counts. All methods are safe for concurrent use.
type Metrics struct {
	reg *obs.Registry

	requests  *obs.Counter   // insightalign_fleet_requests_total{route,code}
	latency   *obs.Histogram // insightalign_fleet_request_duration_seconds{route}
	forwards  *obs.Counter   // insightalign_fleet_forward_total{replica,outcome}
	hedges    *obs.Counter   // insightalign_fleet_hedges_total{result}
	hedgeGate *obs.Gauge     // insightalign_fleet_hedges_inflight
	shed      *obs.Counter   // insightalign_fleet_shed_total{reason}
	rebuilds  *obs.Counter   // insightalign_fleet_ring_rebuilds_total
	up        *obs.Gauge     // insightalign_fleet_replica_up{replica}
	brkState  *obs.Gauge     // insightalign_fleet_replica_breaker_state{replica}
	brkTrans  *obs.Counter   // insightalign_fleet_breaker_transitions_total{replica,to}
	inflight  *obs.Gauge     // insightalign_fleet_replica_inflight{replica}
	queued    *obs.Gauge     // insightalign_fleet_replica_queued{replica}
}

// NewMetrics binds the fleet metric families in reg (nil: the
// process-wide obs.Default()).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &Metrics{
		reg: reg,
		requests: reg.Counter("insightalign_fleet_requests_total",
			"Routed HTTP requests by route and status code.", "route", "code"),
		latency: reg.Histogram("insightalign_fleet_request_duration_seconds",
			"End-to-end routed request latency by route.", routedLatencyBounds, "route"),
		forwards: reg.Counter("insightalign_fleet_forward_total",
			"Forward attempts by replica and outcome (ok, client_error, saturated, unavailable, backend_error, transport, canceled).",
			"replica", "outcome"),
		hedges: reg.Counter("insightalign_fleet_hedges_total",
			"Hedged requests by result (won: hedge answered first; lost: primary answered first; denied: hedge cap or no spare replica).",
			"result"),
		hedgeGate: reg.Gauge("insightalign_fleet_hedges_inflight",
			"Hedge requests currently in flight."),
		shed: reg.Counter("insightalign_fleet_shed_total",
			"Requests shed by the router with 503 + Retry-After, by reason (saturated, breaker_open, no_replicas).", "reason"),
		rebuilds: reg.Counter("insightalign_fleet_ring_rebuilds_total",
			"Consistent-hash ring rebuilds (membership changes, including health ejections and re-adds)."),
		up: reg.Gauge("insightalign_fleet_replica_up",
			"Replica liveness from /healthz polling (1 up, 0 down).", "replica"),
		brkState: reg.Gauge("insightalign_fleet_replica_breaker_state",
			"Per-replica router breaker state (0 closed, 1 open, 2 half-open).", "replica"),
		brkTrans: reg.Counter("insightalign_fleet_breaker_transitions_total",
			"Per-replica router breaker transitions by destination state.", "replica", "to"),
		inflight: reg.Gauge("insightalign_fleet_replica_inflight",
			"In-flight forwards per replica.", "replica"),
		queued: reg.Gauge("insightalign_fleet_replica_queued",
			"Requests waiting for a replica admission slot.", "replica"),
	}
}

// Registry returns the obs registry this bridge writes into.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// ObserveRequest records one completed routed request.
func (m *Metrics) ObserveRequest(route string, code int, d time.Duration) {
	m.ObserveRequestEx(route, code, d, "")
}

// ObserveRequestEx records one completed routed request with an optional
// exemplar trace ID on the latency buckets.
func (m *Metrics) ObserveRequestEx(route string, code int, d time.Duration, traceID string) {
	m.requests.Inc(route, strconv.Itoa(code))
	m.latency.ObserveEx(d.Seconds(), traceID, route)
}

// ObserveForward records one forward attempt's outcome.
func (m *Metrics) ObserveForward(replica, outcome string) {
	m.forwards.Inc(replica, outcome)
}

// ObserveHedge records a hedge decision ("won", "lost", "denied").
func (m *Metrics) ObserveHedge(result string) { m.hedges.Inc(result) }

// HedgeStarted / HedgeFinished move the in-flight hedge gauge.
func (m *Metrics) HedgeStarted()  { m.hedgeGate.Add(1) }
func (m *Metrics) HedgeFinished() { m.hedgeGate.Add(-1) }

// ObserveShed records one shed request by reason.
func (m *Metrics) ObserveShed(reason string) { m.shed.Inc(reason) }

// ObserveRebuild records one ring rebalance.
func (m *Metrics) ObserveRebuild() { m.rebuilds.Inc() }

// SetReplicaUp publishes one replica's health-poll verdict.
func (m *Metrics) SetReplicaUp(replica string, up bool) {
	v := 0.0
	if up {
		v = 1
	}
	m.up.Set(v, replica)
}

// ObserveBreakerTransition records a per-replica breaker move.
func (m *Metrics) ObserveBreakerTransition(replica string, from, to BreakerState) {
	m.brkTrans.Inc(replica, to.String())
	m.brkState.Set(float64(to), replica)
}

// SetInflight publishes a replica's in-flight / queued occupancy.
func (m *Metrics) SetInflight(replica string, inflight, queued int64) {
	m.inflight.Set(float64(inflight), replica)
	m.queued.Set(float64(queued), replica)
}
