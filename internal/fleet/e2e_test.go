package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"insightalign/internal/faultinject"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// The fleet E2E: real serve replicas behind a real router over loopback
// HTTP, with deterministic replica kill/recovery and fault injection.

func testLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// e2eBody builds a valid /v1/recommend body whose insight vector is
// derived from salt (distinct salts give distinct affinity keys).
func e2eBody(t *testing.T, salt int) []byte {
	t.Helper()
	dim := serve.DefaultConfig().Model.InsightDim
	iv := make([]float64, dim)
	for j := range iv {
		iv[j] = float64((salt*31+j)%97) / 97
	}
	b, err := json.Marshal(map[string]any{"insight": iv, "beam_width": 2})
	if err != nil {
		t.Fatalf("marshal body: %v", err)
	}
	return b
}

func postJSON(t *testing.T, client *http.Client, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw
}

// sampleCrossHopTrace finds a trace in the shared ring whose merged span
// set crosses the router→replica hop (a router-side "forward" span plus a
// replica-side span under one trace ID).
func sampleCrossHopTrace(tr *obs.Tracer) (string, []string) {
	for _, rec := range tr.Recent(0) {
		merged := tr.LookupMerged(rec.TraceID)
		if merged == nil {
			continue
		}
		hasForward, hasReplica := false, false
		names := make([]string, 0, len(merged.Spans))
		for _, sp := range merged.Spans {
			names = append(names, sp.Name)
			switch sp.Name {
			case "forward":
				hasForward = true
			case "decoder_session", "admission_queue":
				hasReplica = true
			}
		}
		if hasForward && hasReplica {
			return merged.TraceID, names
		}
	}
	return "", nil
}

// assertQuiescent fails the test unless the fleet is at rest: every
// router-side replica gate has no forward in flight or waiting, the
// insightalign_fleet_hedges_inflight gauge reads 0, and each replica of
// lf (nil for stub replicas) has an idle gate and scrapes
// insightalign_queue_depth 0. Losing hedge legs and cancelled forwards
// release asynchronously, so it polls for up to five seconds before
// reporting what is still held.
func assertQuiescent(t *testing.T, rt *Router, lf *LocalFleet) {
	t.Helper()
	var held []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		held = held[:0]
		for _, id := range rt.ids {
			if g := rt.Replica(id).gate; g.Inflight() != 0 || g.Queued() != 0 {
				held = append(held, fmt.Sprintf("router gate for %s: inflight %d queued %d", id, g.Inflight(), g.Queued()))
			}
		}
		if v := rt.met.hedgeGate.Value(); v != 0 {
			held = append(held, fmt.Sprintf("insightalign_fleet_hedges_inflight %g", v))
		}
		if lf != nil {
			for i, rep := range lf.Replicas {
				if g := rep.srv.Gate(); g.Inflight() != 0 || g.Queued() != 0 {
					held = append(held, fmt.Sprintf("replica %d gate: inflight %d queued %d", i, g.Inflight(), g.Queued()))
				}
				if exp := rep.srv.Metrics().Exposition(); !strings.Contains(exp, "insightalign_queue_depth 0\n") {
					held = append(held, fmt.Sprintf("replica %d insightalign_queue_depth not 0", i))
				}
			}
		}
		if len(held) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, h := range held {
		t.Errorf("not at rest: %s", h)
	}
}

func TestFleetKillRecoveryE2E(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tracer := obs.NewTracer(512)
	lf, err := StartLocalFleet(3, LocalOptions{Seed: 7, Tracer: tracer, Logger: testLogger()})
	if err != nil {
		t.Fatalf("StartLocalFleet: %v", err)
	}
	defer lf.Close()

	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Replicas = lf.URLs()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = tracer
	cfg.Logger = testLogger()
	cfg.HealthInterval = 50 * time.Millisecond
	cfg.EjectAfter = 2
	cfg.Breaker.MinSamples = 4
	cfg.Breaker.Window = 8
	cfg.Breaker.Cooldown = 200 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown(context.Background())
	if _, err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + rt.Addr()
	client := &http.Client{Timeout: 30 * time.Second}
	killed := lf.Replicas[0].URL

	fiveXX := 0
	drive := func(phase string, n, saltBase int) map[string]int {
		t.Helper()
		byReplica := map[string]int{}
		for i := 0; i < n; i++ {
			code, hdr, raw := postJSON(t, client, base+"/v1/recommend", e2eBody(t, saltBase+i))
			if code >= 500 {
				fiveXX++
				t.Errorf("%s: request %d leaked %d: %s", phase, i, code, raw)
				continue
			}
			if code != http.StatusOK {
				t.Errorf("%s: request %d got %d: %s", phase, i, code, raw)
				continue
			}
			byReplica[hdr.Get("X-Fleet-Replica")]++
		}
		return byReplica
	}

	// Steady state: every request succeeds and the keys spread over the
	// full fleet.
	steady := drive("steady", 30, 0)
	if len(steady) != 3 {
		t.Fatalf("steady phase reached %d replicas, want 3: %v", len(steady), steady)
	}

	// Kill replica 0. Clients must never see it: transport failures fail
	// over, the health poller ejects it from the ring.
	if err := lf.Kill(context.Background(), 0); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	killPhase := drive("kill", 40, 100)
	if killPhase[killed] != 0 {
		t.Fatalf("kill phase: %d responses served by the dead replica", killPhase[killed])
	}
	for i := 0; i < cfg.EjectAfter; i++ {
		rt.PollHealthNow()
	}
	if members := rt.Ring().Members(); len(members) != 2 {
		t.Fatalf("ring has %d members after kill, want 2 (ejected)", len(members))
	}

	// Restart on the same port; one good poll re-admits it.
	if err := lf.Restart(0); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !rt.Replica(killed).Healthy() && time.Now().Before(deadline) {
		rt.PollHealthNow()
		time.Sleep(20 * time.Millisecond)
	}
	if !rt.Replica(killed).Healthy() {
		t.Fatal("restarted replica never became healthy")
	}
	if members := rt.Ring().Members(); len(members) != 3 {
		t.Fatalf("ring has %d members after recovery, want 3", len(members))
	}

	// Recovered: traffic flows to all three again, still zero 5xx. The
	// restarted replica's breaker may need its cooldown to half-open, so
	// allow a settling window before the assertion drive.
	settleDeadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(settleDeadline) {
		rec := drive("recovered", 30, 200)
		if rec[killed] > 0 {
			break
		}
	}
	rec := drive("recovered-final", 30, 300)
	if len(rec) != 3 {
		t.Fatalf("recovered phase reached %d replicas, want 3: %v", len(rec), rec)
	}
	if fiveXX != 0 {
		t.Fatalf("%d 5xx responses leaked to clients across the cycle", fiveXX)
	}

	// The consistent-hash ring rebalanced at least twice (ejection +
	// re-admission).
	if rb := rt.Ring().Rebuilds(); rb < 3 { // initial build + eject + re-add
		t.Fatalf("ring rebuilds = %d, want >= 3", rb)
	}

	// Cross-process trace visibility: some routed request's merged record
	// must show the router hop (forward span) AND the replica-side spans
	// under one trace ID — the /debug/traces?id= view of the full path.
	id, spans := sampleCrossHopTrace(tracer)
	if id == "" {
		t.Fatal("no merged trace shows the router→replica hop")
	}
	t.Logf("cross-hop trace %s spans: %v", id, spans)

	// Quiescence: with the router and every replica shut down, no
	// admission slot or waiter is held anywhere, every replica's
	// insightalign_queue_depth scrapes 0, and the goroutines wind down.
	if err := rt.Shutdown(context.Background()); err != nil {
		t.Fatalf("router Shutdown: %v", err)
	}
	lf.Close()
	assertQuiescent(t, rt, lf)
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline {
		t.Errorf("%d goroutines after shutdown, baseline %d", n, baseline)
	}
}

func TestFleetFaultInjectedBreakerNoLeak(t *testing.T) {
	// Replica 0's backend deterministically 502s: the poller keeps
	// calling it healthy — /healthz answers fine — and only the router's
	// outcome-driven breaker can take it out of rotation. Faults clear
	// after run faultsUntil, so the breaker's half-open probes eventually
	// succeed and close it again.
	const faultsUntil = 12
	inj := faultinject.New(faultinject.Config{
		Seed: 3, Rate: 1,
		Stages: []string{"backend"},
		Kinds:  []faultinject.Kind{faultinject.Error},
		From:   0, To: faultsUntil,
	})
	tracer := obs.NewTracer(64)
	lf, err := StartLocalFleet(2, LocalOptions{
		Seed: 7, Tracer: tracer, Logger: testLogger(),
		Hook: func(i int) func(context.Context) error {
			if i == 0 {
				return inj.HookFunc("backend")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("StartLocalFleet: %v", err)
	}
	defer lf.Close()
	faulty := lf.Replicas[0].URL

	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Replicas = lf.URLs()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = tracer
	cfg.Logger = testLogger()
	cfg.DisableHedging = true
	cfg.Breaker.MinSamples = 4
	cfg.Breaker.Window = 8
	cfg.Breaker.Cooldown = 100 * time.Millisecond
	cfg.Breaker.HalfOpenProbes = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer rt.Shutdown(context.Background())
	if _, err := rt.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	base := "http://" + rt.Addr()
	client := &http.Client{Timeout: 30 * time.Second}

	opened := false
	healedBy := -1
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		code, hdr, raw := postJSON(t, client, base+"/v1/recommend", e2eBody(t, i))
		if code >= 500 {
			t.Fatalf("request %d leaked %d past failover: %s", i, code, raw)
		}
		if code != http.StatusOK {
			t.Fatalf("request %d got %d: %s", i, code, raw)
		}
		if rt.Replica(faulty).BreakerState() != BreakerClosed {
			opened = true
		}
		// Healed: the faulty replica serves a 200 again after the fault
		// window passed and its breaker reclosed.
		if opened && hdr.Get("X-Fleet-Replica") == faulty &&
			rt.Replica(faulty).BreakerState() == BreakerClosed {
			healedBy = i
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !opened {
		t.Fatal("router breaker never opened on the fault-injected replica")
	}
	if healedBy < 0 {
		t.Fatal("fault-injected replica never returned to service after faults cleared")
	}
	t.Logf("breaker opened and replica healed by request %d (injected faults: %d)", healedBy, faultsUntil)

	expo := rt.Metrics().Registry().Exposition()
	for _, want := range []string{
		fmt.Sprintf(`insightalign_fleet_breaker_transitions_total{replica="%s",to="open"}`, faulty),
		fmt.Sprintf(`insightalign_fleet_breaker_transitions_total{replica="%s",to="closed"}`, faulty),
		`insightalign_fleet_forward_total`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("metric %q missing from exposition", want)
		}
	}
	assertQuiescent(t, rt, lf)
}
