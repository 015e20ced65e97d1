package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"insightalign/internal/faultinject"
	"insightalign/internal/obs"
	"insightalign/internal/obs/slo"
)

// pollWorst drives traffic until the engine's worst verdict matches
// want, or the deadline passes. Each tick sends one request so the SLO
// windows keep advancing (the engine only evaluates on observation or
// report).
func pollWorst(t *testing.T, ts string, s *Server, want slo.State, deadline time.Duration) {
	t.Helper()
	iv := make([]float64, s.cfg.Model.InsightDim)
	for i := range iv {
		iv[i] = 0.01 * float64(i%7)
	}
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		postJSON(t, ts+"/v1/recommend", RecommendRequest{Insight: iv})
		if s.SLO().Worst() == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("SLO never reached %v within %v (now %v)", want, deadline, s.SLO().Worst())
}

// TestSLOBrownoutE2E is the acceptance-path E2E: a fault-injected
// backend brownout drives the serve SLO ok -> page, recovery drives it
// page -> ok, and the journal replays the same slo_alert transitions.
func TestSLOBrownoutE2E(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "slo.jsonl")
	j, err := obs.NewJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}

	// Tiny windows so the brownout pages (and clears) in test time. The
	// slow window still dominates the fast one 6:1, preserving the
	// multiwindow shape the production defaults rely on.
	cfg := obsConfig()
	cfg.SLO = slo.New(slo.Config{
		Objectives: []slo.Objective{{
			Name: "availability", Kind: slo.Availability, Target: 0.9,
			FastWindow: 200 * time.Millisecond, SlowWindow: 1200 * time.Millisecond,
			PageBurn: 4, WarnBurn: 2,
		}},
		Journal: j,
	})

	// Brownout switch over a deterministic all-error injector: while the
	// switch is up every decoder call fails with ErrBackend -> HTTP 502.
	inj := faultinject.New(faultinject.Config{
		Seed: 7, Rate: 1, Stages: []string{"backend"}, Kinds: []faultinject.Kind{faultinject.Error},
	})
	hook := inj.HookFunc("backend")
	var brownout atomic.Bool
	cfg.BackendHook = func(ctx context.Context) error {
		if !brownout.Load() {
			return nil
		}
		return hook(ctx)
	}
	ts, s, _, _ := newTestServer(t, cfg)

	// Phase 1: healthy traffic settles the objective at ok.
	pollWorst(t, ts.URL, s, slo.StateOK, 3*time.Second)

	// Phase 2: brownout. Every request 502s until both windows burn.
	brownout.Store(true)
	pollWorst(t, ts.URL, s, slo.StatePage, 10*time.Second)

	// Phase 3: recovery. Good traffic flushes the fast window first, then
	// the slow one; the objective must come all the way back to ok.
	brownout.Store(false)
	pollWorst(t, ts.URL, s, slo.StateOK, 10*time.Second)

	if n := inj.Applied(faultinject.Error); n == 0 {
		t.Fatal("injector applied no faults — the brownout never happened")
	}

	// The journal must replay the same story: a transition into page,
	// then a later transition back to ok.
	entries, err := obs.ReadJournalFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var seq []slo.AlertEvent
	for _, e := range entries {
		if e.Event != slo.EventSLOAlert {
			continue
		}
		var ev slo.AlertEvent
		if err := json.Unmarshal(e.Data, &ev); err != nil {
			t.Fatalf("bad slo_alert payload: %v", err)
		}
		seq = append(seq, ev)
	}
	if len(seq) == 0 {
		t.Fatal("no slo_alert events journaled")
	}
	pageAt, okAt := -1, -1
	for i, ev := range seq {
		if ev.To == "page" && pageAt < 0 {
			pageAt = i
		}
		if ev.To == "ok" && pageAt >= 0 {
			okAt = i
		}
	}
	if pageAt < 0 || okAt <= pageAt {
		t.Fatalf("journal lacks page-then-ok sequence: %+v", seq)
	}

	// And the HTTP surface agrees: /debug/slo reports ok everywhere now.
	resp, err := http.Get(ts.URL + "/debug/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep slo.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Worst != "ok" {
		t.Fatalf("/debug/slo worst = %q after recovery: %+v", rep.Worst, rep.Verdicts)
	}
}
