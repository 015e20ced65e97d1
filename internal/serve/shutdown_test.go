package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
)

// assertQuiescent checks that a shut-down server left nothing behind: no
// held admission slot or waiter, insightalign_queue_depth scraping 0, and
// the process back to at most baseline goroutines within a bounded poll.
func assertQuiescent(t *testing.T, s *Server, baseline int) {
	t.Helper()
	if in, q := s.Gate().Inflight(), s.Gate().Queued(); in != 0 || q != 0 {
		t.Errorf("gate not idle after shutdown: inflight %d queued %d", in, q)
	}
	if exp := s.Metrics().Exposition(); !strings.Contains(exp, "insightalign_queue_depth 0\n") {
		t.Errorf("insightalign_queue_depth not 0 after shutdown:\n%s", exp)
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); n > baseline && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > baseline {
		t.Errorf("%d goroutines after shutdown, baseline %d", n, baseline)
	}
}

// Graceful shutdown under load: a request in flight when Shutdown begins
// must run to completion (200), while new connections are cleanly refused
// once the listener closes — nothing hangs, nothing is dropped mid-body.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Logger = quietLogger()
	cfg.Metrics = obs.NewRegistry()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	cfg.BackendHook = func(ctx context.Context) error {
		once.Do(func() { close(entered) })
		select {
		case <-release:
			return nil
		case <-time.After(30 * time.Second):
			return context.DeadlineExceeded
		}
	}

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
	if _, err := reg.SetModel(m, "shutdown-test"); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	iv := make([]float64, cfg.Model.InsightDim)
	for i := range iv {
		iv[i] = float64(i) / float64(len(iv))
	}
	body, _ := json.Marshal(RecommendRequest{Insight: iv, BeamWidth: 2})

	// Park one request inside the backend.
	type outcome struct {
		code int
		err  error
	}
	inflight := make(chan outcome, 1)
	go func() {
		resp, err := http.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- outcome{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- outcome{code: resp.StatusCode}
	}()
	select {
	case <-entered:
	case o := <-inflight:
		t.Fatalf("request finished before reaching the backend: %+v", o)
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the backend")
	}

	// Begin shutdown while the request is still parked.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()

	// New connections must be refused once the listener closes — poll,
	// since Shutdown closes it asynchronously from our perspective.
	refused := false
	quick := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		resp, err := quick.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
		if err != nil {
			refused = true
			break
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	if !refused {
		t.Fatal("new requests still accepted during shutdown")
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v while a request was still in flight", err)
	default:
	}

	// Release the backend: the parked request must complete successfully
	// and only then may Shutdown return.
	close(release)
	select {
	case o := <-inflight:
		if o.err != nil || o.code != http.StatusOK {
			t.Fatalf("in-flight request did not complete cleanly: %+v", o)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown never returned after the fleet drained")
	}
	assertQuiescent(t, s, baseline)
}

// Shutdown with many concurrent non-blocking requests: every response is
// either a completed 200 or a clean connection error — no 5xx, no hangs.
func TestShutdownDrainsConcurrentLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Logger = quietLogger()
	cfg.Metrics = obs.NewRegistry()
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
	if _, err := reg.SetModel(m, "drain-test"); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()

	iv := make([]float64, cfg.Model.InsightDim)
	body, _ := json.Marshal(RecommendRequest{Insight: iv, BeamWidth: 2})

	const clients = 8
	var mu sync.Mutex
	var results []int
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			var codes []int
			defer func() {
				mu.Lock()
				results = append(results, codes...)
				mu.Unlock()
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
				if err != nil {
					return // listener closed: clean refusal ends this client
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				codes = append(codes, resp.StatusCode)
			}
		}()
	}
	// Let load build, then shut down mid-stream.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown under load: %v", err)
	}
	close(stop)
	wg.Wait()
	for _, code := range results {
		if code != http.StatusOK {
			t.Errorf("completed request got %d, want 200 (drain must not degrade accepted work)", code)
		}
	}
	if len(results) == 0 {
		t.Fatal("no requests completed before shutdown")
	}
	assertQuiescent(t, s, baseline)
}
