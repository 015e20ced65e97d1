package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
)

func testInsight(seed int) []float64 {
	iv := make([]float64, 72)
	for i := range iv {
		iv[i] = float64((i*31+seed*17)%13)/13 - 0.5
	}
	return iv
}

// waitFor spins (yielding, never sleeping) until cond holds, failing the
// test after a generous bound.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestGateTryAcquireAndBoundedWait(t *testing.T) {
	g := NewGate(1, 1)
	if !g.TryAcquire() {
		t.Fatal("TryAcquire on an idle gate failed")
	}
	if g.TryAcquire() {
		t.Fatal("TryAcquire succeeded with every slot held")
	}
	// One waiter parks; a second is refused at once (the timeout only
	// bounds a wrongly parked second waiter).
	got := make(chan error, 1)
	go func() { got <- g.Acquire(context.Background()) }()
	waitFor(t, "a parked waiter", func() bool { return g.Queued() == 1 })
	bounded, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := g.Acquire(bounded); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("second waiter: %v, want ErrQueueFull", err)
	}
	// Releasing hands the slot to the waiter.
	g.Release()
	if err := <-got; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if g.Inflight() != 1 || g.Queued() != 0 {
		t.Fatalf("inflight %d queued %d, want 1 and 0", g.Inflight(), g.Queued())
	}
	// A waiter whose context ends gives up with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { got <- g.Acquire(ctx) }()
	waitFor(t, "a cancellable waiter", func() bool { return g.Queued() == 1 })
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v, want context.Canceled", err)
	}
	// Close fails parked waiters and every later Acquire.
	go func() { got <- g.Acquire(context.Background()) }()
	waitFor(t, "a waiter before Close", func() bool { return g.Queued() == 1 })
	g.Close()
	if err := <-got; !errors.Is(err, ErrShutdown) {
		t.Fatalf("waiter at Close: %v, want ErrShutdown", err)
	}
	g.Release()
	if err := g.Acquire(context.Background()); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Acquire after Close: %v, want ErrShutdown", err)
	}
	g.Close() // idempotent
	if g.Inflight() != 0 || g.Queued() != 0 {
		t.Fatalf("inflight %d queued %d at rest, want 0 and 0", g.Inflight(), g.Queued())
	}
}

// holdingHook is a BackendHook that parks every decode until free is
// called, counting how many decodes reached it. It ignores the request
// context, so a holder keeps its slot past its own deadline.
type holdingHook struct {
	release chan struct{}
	once    sync.Once
	entered atomic.Int64
}

func newHoldingHook() *holdingHook { return &holdingHook{release: make(chan struct{})} }

// free lets every parked and future decode through.
func (h *holdingHook) free() { h.once.Do(func() { close(h.release) }) }

func (h *holdingHook) hook(context.Context) error {
	h.entered.Add(1)
	<-h.release
	return nil
}

// admissionServer boots a test server whose every decode parks in a
// holdingHook, with metrics isolated to the test.
func admissionServer(t *testing.T, queueDepth int, timeout time.Duration) (*httptest.Server, *Server, *holdingHook) {
	t.Helper()
	h := newHoldingHook()
	cfg := e2eConfig()
	cfg.QueueDepth = queueDepth
	cfg.RequestTimeout = timeout
	cfg.BackendHook = h.hook
	cfg.Metrics = obs.NewRegistry()
	ts, s, _, _ := newTestServer(t, cfg)
	// Runs before the server's own cleanup, so a failed test does not
	// leave holders parked while the test server waits for them.
	t.Cleanup(h.free)
	return ts, s, h
}

// postAsync posts one recommendation in the background and delivers its
// status code, or -1 when the request fails or outlives the client's
// timeout (so a request the gate wrongly parks fails the test instead of
// hanging it).
func postAsync(ts *httptest.Server, iv []float64) <-chan int {
	code := make(chan int, 1)
	body, _ := json.Marshal(RecommendRequest{Insight: iv, BeamWidth: 2})
	client := &http.Client{Timeout: 10 * time.Second}
	go func() {
		resp, err := client.Post(ts.URL+"/v1/recommend", "application/json", bytes.NewReader(body))
		if err != nil {
			code <- -1
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// holdAllSlots starts one request per decode slot and waits until each
// is parked in the hook.
func holdAllSlots(t *testing.T, ts *httptest.Server, h *holdingHook) []<-chan int {
	t.Helper()
	slots := runtime.GOMAXPROCS(0)
	codes := make([]<-chan int, slots)
	for i := range codes {
		codes[i] = postAsync(ts, testInsight(i))
	}
	waitFor(t, "every slot held", func() bool { return h.entered.Load() == int64(slots) })
	return codes
}

func expectCodes(t *testing.T, what string, codes []<-chan int, want int) {
	t.Helper()
	for i, c := range codes {
		if got := <-c; got != want {
			t.Errorf("%s %d: status %d, want %d", what, i, got, want)
		}
	}
}

func assertGateIdle(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "an idle gate", func() bool { return s.Gate().Inflight() == 0 && s.Gate().Queued() == 0 })
	if exp := s.Metrics().Exposition(); !strings.Contains(exp, "insightalign_queue_depth 0\n") {
		t.Errorf("insightalign_queue_depth not 0 at rest:\n%s", exp)
	}
}

// With every slot held and QueueDepth requests waiting, the next request
// is refused with 429 and counted as queue_full; the parked ones all
// complete once the backend frees.
func TestAdmissionQueueFull429(t *testing.T) {
	const depth = 2
	ts, s, h := admissionServer(t, depth, 30*time.Second)
	holders := holdAllSlots(t, ts, h)
	var waiters []<-chan int
	for i := 0; i < depth; i++ {
		waiters = append(waiters, postAsync(ts, testInsight(100+i)))
	}
	waitFor(t, "parked waiters", func() bool { return s.Gate().Queued() == depth })
	if got := <-postAsync(ts, testInsight(200)); got != http.StatusTooManyRequests {
		t.Fatalf("request past slots+QueueDepth: status %d, want 429", got)
	}
	if exp := s.Metrics().Exposition(); !strings.Contains(exp, `insightalign_rejections_total{reason="queue_full"} 1`) {
		t.Fatalf("queue_full rejection not counted:\n%s", exp)
	}
	h.free()
	expectCodes(t, "holder", holders, http.StatusOK)
	expectCodes(t, "waiter", waiters, http.StatusOK)
	assertGateIdle(t, s)
}

// A waiter whose deadline passes before a slot frees gets 504, is counted
// as a deadline rejection, and never reaches the backend hook or the
// batch-size histogram.
func TestAdmissionDeadline504(t *testing.T) {
	ts, s, h := admissionServer(t, 4, 200*time.Millisecond)
	holders := holdAllSlots(t, ts, h)
	if got := <-postAsync(ts, testInsight(100)); got != http.StatusGatewayTimeout {
		t.Fatalf("expired waiter: status %d, want 504", got)
	}
	if exp := s.Metrics().Exposition(); !strings.Contains(exp, `insightalign_rejections_total{reason="deadline"} 1`) {
		t.Fatalf("deadline rejection not counted:\n%s", exp)
	}
	h.free()
	expectCodes(t, "holder", holders, http.StatusOK)
	slots := runtime.GOMAXPROCS(0)
	if got := h.entered.Load(); got != int64(slots) {
		t.Fatalf("hook entered %d times, want %d (the expired waiter must not decode)", got, slots)
	}
	if exp := s.Metrics().Exposition(); !strings.Contains(exp, fmt.Sprintf("insightalign_batch_size_count %d\n", slots)) {
		t.Fatalf("batch-size histogram should count only the %d holders:\n%s", slots, exp)
	}
	assertGateIdle(t, s)
}

// Several waiters that expire together are dropped before any decode:
// the batch-size histogram records one observation of size 1 per decoder
// call (the holders and one later live request), never the expired ones.
func TestAdmissionExpiredWaitersNotInHistogram(t *testing.T) {
	const expired = 3
	ts, s, h := admissionServer(t, expired, 200*time.Millisecond)
	holders := holdAllSlots(t, ts, h)
	var waiters []<-chan int
	for i := 0; i < expired; i++ {
		waiters = append(waiters, postAsync(ts, testInsight(100+i)))
	}
	expectCodes(t, "expired waiter", waiters, http.StatusGatewayTimeout)
	h.free()
	expectCodes(t, "holder", holders, http.StatusOK)
	if got := <-postAsync(ts, testInsight(200)); got != http.StatusOK {
		t.Fatalf("live request after the expiries: status %d, want 200", got)
	}
	calls := runtime.GOMAXPROCS(0) + 1
	if got := h.entered.Load(); got != int64(calls) {
		t.Fatalf("hook entered %d times, want %d (expired waiters must not decode)", got, calls)
	}
	exp := s.Metrics().Exposition()
	for _, want := range []string{
		fmt.Sprintf("insightalign_batch_size_count %d\n", calls),
		fmt.Sprintf("insightalign_batch_size_sum %d\n", calls),
		fmt.Sprintf(`insightalign_rejections_total{reason="deadline"} %d`, expired),
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition lacks %q:\n%s", want, exp)
		}
	}
	assertGateIdle(t, s)
}

// With no model loaded a request is refused with 503 after admission,
// without reaching the backend hook or the batch-size histogram, and its
// slot is returned.
func TestAdmissionNoModel503(t *testing.T) {
	reg, err := NewRegistry(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	h := newHoldingHook()
	h.free()
	cfg := e2eConfig()
	cfg.Logger = quietLogger()
	cfg.BackendHook = h.hook
	cfg.Metrics = obs.NewRegistry()
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Shutdown(context.Background()) }()

	if got := <-postAsync(ts, testInsight(0)); got != http.StatusServiceUnavailable {
		t.Fatalf("no-model recommend: status %d, want 503", got)
	}
	if got := h.entered.Load(); got != 0 {
		t.Fatalf("hook entered %d times with no model, want 0", got)
	}
	// A histogram with no observation exposes no series.
	if exp := s.Metrics().Exposition(); strings.Contains(exp, "insightalign_batch_size_count") {
		t.Fatalf("no-model request reached the batch-size histogram:\n%s", exp)
	}
	assertGateIdle(t, s)
}

// Shutdown fails requests still waiting for a slot and every request
// after it with 503.
func TestAdmissionShutdown503(t *testing.T) {
	ts, s, h := admissionServer(t, 4, 30*time.Second)
	holders := holdAllSlots(t, ts, h)
	waiter := postAsync(ts, testInsight(100))
	waitFor(t, "a parked waiter", func() bool { return s.Gate().Queued() == 1 })
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := <-waiter; got != http.StatusServiceUnavailable {
		t.Fatalf("waiter at shutdown: status %d, want 503", got)
	}
	if got := <-postAsync(ts, testInsight(101)); got != http.StatusServiceUnavailable {
		t.Fatalf("request after shutdown: status %d, want 503", got)
	}
	if exp := s.Metrics().Exposition(); !strings.Contains(exp, `insightalign_rejections_total{reason="shutdown"} 2`) {
		t.Fatalf("shutdown rejections not counted:\n%s", exp)
	}
	h.free()
	expectCodes(t, "holder", holders, http.StatusOK)
	assertGateIdle(t, s)
}

// A client batch with more elements than decode slots (but within
// QueueDepth) queues its overflow at the gate and answers every element
// exactly as a direct BeamSearch would.
func TestAdmissionBatchBeyondSlots(t *testing.T) {
	cfg := e2eConfig()
	cfg.Metrics = obs.NewRegistry()
	n := 2*runtime.GOMAXPROCS(0) + 1
	cfg.QueueDepth = n
	ts, s, ref, _ := newTestServer(t, cfg)
	var br BatchRequest
	for i := 0; i < n; i++ {
		br.Requests = append(br.Requests, RecommendRequest{Insight: testInsight(i), BeamWidth: 3})
	}
	resp, body := postJSON(t, ts.URL+"/v1/recommend/batch", br)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != n {
		t.Fatalf("%d results, want %d", len(out.Results), n)
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("element %d: %s", i, r.Error)
		}
		want := ref.BeamSearch(br.Requests[i].Insight, 3)
		if len(r.Candidates) != len(want) {
			t.Fatalf("element %d: %d candidates, want %d", i, len(r.Candidates), len(want))
		}
		for j := range want {
			if r.Candidates[j].Recipes != want[j].Set.String() || r.Candidates[j].LogProb != want[j].LogProb {
				t.Fatalf("element %d candidate %d differs from BeamSearch", i, j)
			}
		}
	}
	assertGateIdle(t, s)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRecommendHandlerAllocBudget pins the allocations of one K=5
// /v1/recommend through the full handler (middleware, JSON, admission,
// decode) with cache and store off, on the default architecture.
func TestRecommendHandlerAllocBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Logger = quietLogger()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = obs.NewTracer(64)
	reg, err := NewRegistry(cfg.Model)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := cfg.Model
	mcfg.Seed = 7
	m, err := core.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.SetModel(m, "alloc-budget"); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	body, _ := json.Marshal(RecommendRequest{Insight: testInsight(3), BeamWidth: 5})
	h := s.Handler()
	run := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	run() // warm the session pool, tables and metric series
	// Measured 154 (Go 1.24, linux/amd64); 6 of slack.
	budget := 160
	if raceEnabled {
		// The race detector makes sync.Pool drop pooled decoder sessions
		// at random, adding their allocations back (measured 167-170).
		budget += 15
	}
	allocs := testing.AllocsPerRun(50, run)
	if allocs > float64(budget) {
		t.Errorf("%.1f allocs per /v1/recommend, budget %d", allocs, budget)
	}
}
