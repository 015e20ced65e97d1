package lifecycle

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// newTestController builds a controller over a fresh boosted live
// registry with fast thresholds and a journal in dir.
func newTestController(t testing.TB, dir string, mut func(*Config)) (*Controller, *core.Model, string) {
	t.Helper()
	reg, live, _ := liveRegistry(t, dir)
	j, err := obs.OpenJournal(filepath.Join(dir, "lifecycle.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Registry: reg,
		Journal:  j,
		Thresholds: Thresholds{
			MinShadowSamples: 4,
			MaxShadowDelta:   1,
			MinCanarySamples: 4,
			PromoteSamples:   12,
			MaxErrorRatio:    0.25,
			MaxLatencyRatio:  8,
			MaxQoRRegression: 1,
		},
		CanaryWeight:  1,
		QuarantineDir: filepath.Join(dir, "quarantine"),
		Logger:        quietLogger(),
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, live, j.Path()
}

// candidateFrom saves a mutated copy of the live model as a candidate
// checkpoint file.
func candidateFrom(t testing.TB, dir string, live *core.Model, mut func(*core.Model)) string {
	t.Helper()
	cand, err := core.New(live.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	lp, cp := live.Params(), cand.Params()
	for i := range lp {
		copy(cp[i].Data, lp[i].Data)
	}
	mut(cand)
	path := filepath.Join(dir, "cand.bin")
	saveModel(t, path, cand)
	return path
}

func TestSubmitReplayShadowPassThenPromote(t *testing.T) {
	dir := t.TempDir()
	var live *core.Model
	c, live, jpath := newTestController(t, dir, func(cfg *Config) {
		cfg.ShadowReplay = filepath.Join(dir, "replay.jsonl")
	})
	// 6 replay iterations ≥ the 4-sample shadow gate: the shadow verdict
	// resolves synchronously inside Submit.
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 11)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 5) })

	cand, err := c.Submit(candPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cand.Version, "cand-") {
		t.Fatalf("candidate version %q", cand.Version)
	}
	if got := c.State(); got != StateCanary {
		t.Fatalf("state after near-identical replay shadow = %v, want canary", got)
	}
	// Weight 1: every fingerprint routes to the candidate.
	for fp := uint64(0); fp < 64; fp++ {
		if c.Route(fp) == nil {
			t.Fatalf("weight-1 canary did not route fp %d", fp)
		}
	}
	// Healthy candidate outcomes up to the promote gate.
	before := c.cfg.Registry.Version()
	for i := 0; i < 12; i++ {
		c.ObserveCandidate(200, time.Millisecond, -2)
	}
	if got := c.State(); got != StateIdle {
		t.Fatalf("state after promote gate = %v, want idle", got)
	}
	after := c.cfg.Registry.Version()
	if after == before || !strings.HasPrefix(after, "v2-") {
		t.Fatalf("promotion did not cut over: %q -> %q", before, after)
	}
	if c.Route(1) != nil {
		t.Fatal("route still active after promotion")
	}
	expectActions(t, journalActions(t, jpath), []string{"submitted", "canary_start", "promoted"})
}

func TestShadowGateRollsBackRegressingCandidate(t *testing.T) {
	dir := t.TempDir()
	c, live, jpath := newTestController(t, dir, func(cfg *Config) {
		cfg.ShadowReplay = filepath.Join(dir, "replay.jsonl")
	})
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 13)
	// Max-entropy candidate: top-1 log-prob 12·ln(½) ≈ −8.3 while the
	// boosted live model scores its own picks near 0 — a replay delta
	// far past the 1.0 gate.
	candPath := candidateFrom(t, dir, live, zeroOutProj)

	if _, err := c.Submit(candPath); err != nil {
		t.Fatal(err)
	}
	if got := c.State(); got != StateIdle {
		t.Fatalf("state after regressing replay shadow = %v, want idle (rolled back)", got)
	}
	acts := journalActions(t, jpath)
	expectActions(t, acts, []string{"submitted", "rolled_back"})
	// The candidate file is quarantined...
	if _, err := os.Stat(candPath); !os.IsNotExist(err) {
		t.Fatalf("candidate file still in place after rollback (err=%v)", err)
	}
	qPath := filepath.Join(dir, "quarantine", "cand.bin")
	if _, err := os.Stat(qPath); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// ...and its hash is blacklisted: resubmission is rejected.
	if _, err := c.Submit(qPath); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantined candidate resubmission: err=%v", err)
	}
	expectActions(t, journalActions(t, jpath), []string{"submitted", "rolled_back", "rejected"})
}

func TestCanaryVerdictErrorRatio(t *testing.T) {
	dir := t.TempDir()
	c, live, jpath := newTestController(t, dir, func(cfg *Config) {
		cfg.ShadowReplay = filepath.Join(dir, "replay.jsonl")
	})
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 17)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 7) })
	if _, err := c.Submit(candPath); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateCanary {
		t.Fatal("candidate did not reach canary")
	}
	// All-502 candidate: ratio 1.0 > 0.25 trips at the 4-sample gate.
	for i := 0; i < 4; i++ {
		c.ObserveCandidate(502, time.Millisecond, math.NaN())
	}
	if got := c.State(); got != StateIdle {
		t.Fatalf("state after 100%% candidate errors = %v, want idle", got)
	}
	acts := journalActions(t, jpath)
	expectActions(t, acts, []string{"submitted", "canary_start", "rolled_back"})
	if c.Route(1) != nil {
		t.Fatal("route still active after rollback")
	}
}

func TestCanaryRouteDeterministicAndWeighted(t *testing.T) {
	dir := t.TempDir()
	c, live, _ := newTestController(t, dir, func(cfg *Config) {
		cfg.ShadowReplay = filepath.Join(dir, "replay.jsonl")
		cfg.CanaryWeight = 0.5
	})
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 19)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 9) })
	if _, err := c.Submit(candPath); err != nil {
		t.Fatal(err)
	}
	if c.State() != StateCanary {
		t.Fatal("candidate did not reach canary")
	}
	routed := 0
	first := make([]bool, 4096)
	for fp := range first {
		first[fp] = c.Route(uint64(fp)) != nil
		if first[fp] {
			routed++
		}
	}
	// Deterministic: the same fingerprints route on every call.
	for fp := range first {
		if (c.Route(uint64(fp)) != nil) != first[fp] {
			t.Fatalf("fp %d assignment flapped", fp)
		}
	}
	// Weighted: a 0.5 split lands near half (binomial over 4096).
	if routed < 1800 || routed > 2300 {
		t.Fatalf("weight-0.5 canary routed %d/4096", routed)
	}
}

func TestResumeRestoresCanaryAndStickiness(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	jpath := filepath.Join(dir, "lifecycle.jsonl")
	replay := filepath.Join(dir, "replay.jsonl")
	writeReplayJournal(t, replay, live, 6, 23)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 3) })

	mkCtl := func() *Controller {
		j, err := obs.OpenJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Registry: reg,
			Journal:  j,
			Thresholds: Thresholds{
				MinShadowSamples: 4, MaxShadowDelta: 1,
				MinCanarySamples: 4, PromoteSamples: 100,
				MaxErrorRatio: 0.5, MaxLatencyRatio: 8, MaxQoRRegression: 1,
			},
			CanaryWeight: 0.5,
			ShadowReplay: replay,
			Logger:       quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	c1 := mkCtl()
	if _, err := c1.Submit(candPath); err != nil {
		t.Fatal(err)
	}
	if c1.State() != StateCanary {
		t.Fatal("candidate did not reach canary")
	}
	assign1 := make([]bool, 1024)
	for fp := range assign1 {
		assign1[fp] = c1.Route(uint64(fp)) != nil
	}
	// Crash: the process dies mid-canary. No terminal event is journaled.
	c1.Close()

	c2 := mkCtl()
	t.Cleanup(c2.Close)
	if err := c2.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := c2.State(); got != StateCanary {
		t.Fatalf("resumed state = %v, want canary", got)
	}
	cand := c2.Candidate()
	if cand == nil || !strings.HasPrefix(cand.Version, "cand-") {
		t.Fatalf("resumed candidate %+v", cand)
	}
	// Sticky across the crash: the hash-derived salt reproduces the
	// exact fingerprint slice.
	for fp := range assign1 {
		if (c2.Route(uint64(fp)) != nil) != assign1[fp] {
			t.Fatalf("fp %d assignment changed across resume", fp)
		}
	}
	expectActions(t, journalActions(t, jpath), []string{"submitted", "canary_start", "resumed"})

	// A second restart during the resumed canary resumes again.
	c2.Close()
	c3 := mkCtl()
	t.Cleanup(c3.Close)
	if err := c3.Resume(); err != nil {
		t.Fatal(err)
	}
	if c3.State() != StateCanary {
		t.Fatal("second resume lost the canary")
	}
	expectActions(t, journalActions(t, jpath),
		[]string{"submitted", "canary_start", "resumed", "resumed"})
}

func TestResumeRestoresQuarantineAndIdle(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	jpath := filepath.Join(dir, "lifecycle.jsonl")
	replay := filepath.Join(dir, "replay.jsonl")
	writeReplayJournal(t, replay, live, 6, 29)
	candPath := candidateFrom(t, dir, live, zeroOutProj)

	j1, err := obs.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	thr := Thresholds{MinShadowSamples: 4, MaxShadowDelta: 1, MinCanarySamples: 4,
		PromoteSamples: 100, MaxErrorRatio: 0.5, MaxLatencyRatio: 8, MaxQoRRegression: 1}
	c1, err := New(Config{Registry: reg, Journal: j1, Thresholds: thr,
		ShadowReplay: replay, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(candPath); err != nil {
		t.Fatal(err)
	}
	if c1.State() != StateIdle {
		t.Fatal("regressing candidate not rolled back")
	}
	c1.Close()

	j2, err := obs.OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{Registry: reg, Journal: j2, Thresholds: thr,
		ShadowReplay: replay, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c2.Close)
	if err := c2.Resume(); err != nil {
		t.Fatal(err)
	}
	if c2.State() != StateIdle {
		t.Fatal("resume resurrected a rolled-back candidate")
	}
	// The quarantine blacklist survives the restart even though the
	// in-memory map died with the first process.
	if _, err := c2.Submit(candPath); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("quarantine not restored from journal: err=%v", err)
	}
}

func TestSubmitRejectsIdenticalAndBusy(t *testing.T) {
	dir := t.TempDir()
	c, live, _ := newTestController(t, dir, func(cfg *Config) {
		cfg.ShadowReplay = filepath.Join(dir, "replay.jsonl")
		cfg.Thresholds.PromoteSamples = 1000
	})
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 31)

	// Byte-identical to the live model file: rejected outright.
	samePath := filepath.Join(dir, "same.bin")
	saveModel(t, samePath, live)
	if _, err := c.Submit(samePath); err == nil || !strings.Contains(err.Error(), "identical") {
		t.Fatalf("identical candidate: err=%v", err)
	}

	// One candidate in flight blocks a second.
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 41) })
	if _, err := c.Submit(candPath); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "other.bin")
	saveModel(t, other, live)
	if _, err := c.Submit(other); err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("concurrent submission: err=%v", err)
	}
}

func TestWeightThresholdBounds(t *testing.T) {
	if weightThreshold(0) != 0 {
		t.Fatal("weight 0 must route nothing")
	}
	if weightThreshold(1) != math.MaxUint64 {
		t.Fatal("weight 1 must route (nearly) everything")
	}
	half := weightThreshold(0.5)
	if half < math.MaxUint64/2-1<<32 || half > math.MaxUint64/2+1<<32 {
		t.Fatalf("weight 0.5 threshold %d far from midpoint", half)
	}
}

// TestCanarySplitKnownAnswers pins the canary salt and the sticky split to
// the values recorded before the module's SplitMix64 copies were merged:
// a crash-resumed canary re-derives both and must route every fingerprint
// to the arm it had before the restart.
func TestCanarySplitKnownAnswers(t *testing.T) {
	salts := []uint64{saltFor(""), saltFor("abc"), saltFor("93d1c2f8deadbeef")}
	if want := []uint64{0xc0ffee5eed, 0x7dfe148682c8bc3e, 0x411930c5c8e0af60}; !slices.Equal(salts, want) {
		t.Fatalf("saltFor = %#x, want %#x", salts, want)
	}
	c := &Controller{}
	c.route.Store(&routeEpoch{snap: &serve.Snapshot{}, salt: salts[2], threshold: weightThreshold(0.5)})
	arms := ""
	for fp := uint64(0); fp < 32; fp++ {
		arms += map[bool]string{false: "0", true: "1"}[c.Route(fp) != nil]
	}
	if want := "11111011001001011010101111110110"; arms != want {
		t.Fatalf("canary arms of fingerprints 0..31 = %s, want %s", arms, want)
	}
}

// TestArmStatsP95NearestRank pins the canary latency gate's percentile to
// obs.QuantileDur's nearest rank. At n = 20 that is the 19th fastest
// sample (index 18); the floor(0.95*n) index it replaced read the slowest.
func TestArmStatsP95NearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want time.Duration // samples are 1..n ms, so index i reads i+1 ms
	}{
		{0, 0},
		{1, 1 * time.Millisecond},
		{10, 10 * time.Millisecond},
		{20, 19 * time.Millisecond},
		{100, 95 * time.Millisecond},
	} {
		var a armStats
		for i := tc.n; i >= 1; i-- { // descending: p95 must sort its copy
			a.observe(200, time.Duration(i)*time.Millisecond, math.NaN())
		}
		if got := a.p95(); got != tc.want {
			t.Errorf("n=%d: p95 = %v, want %v", tc.n, got, tc.want)
		}
	}
}
