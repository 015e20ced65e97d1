package lifecycle

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/faultinject"
	"insightalign/internal/obs"
	"insightalign/internal/retrieve"
	"insightalign/internal/serve"
)

// e2eEnv is one live serving process wired to a lifecycle controller —
// the full promotion pipeline over real HTTP.
type e2eEnv struct {
	ts  *httptest.Server
	srv *serve.Server
	ctl *Controller
}

func (e *e2eEnv) stop() {
	e.ts.Close()
	e.srv.Shutdown(context.Background())
	e.ctl.Close()
}

// startE2E boots a server over reg with ctl as its canary seam. Every live
// request is one deterministic decode, so verdict transitions land at
// exact sample counts.
func startE2E(t testing.TB, reg *serve.Registry, ctl *Controller, mut func(*serve.Config)) *e2eEnv {
	t.Helper()
	cfg := serve.DefaultConfig()
	cfg.Model = reg.Config()
	cfg.RequestTimeout = 30 * time.Second
	cfg.Logger = quietLogger()
	cfg.Canary = ctl
	if mut != nil {
		mut(&cfg)
	}
	srv, err := serve.New(cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	return &e2eEnv{ts: httptest.NewServer(srv.Handler()), srv: srv, ctl: ctl}
}

// recOutcome is what one /v1/recommend round trip tells the test: which
// model version answered (candidate responses carry the cand- tag even on
// errors, via the X-Model-Version header) and whether the response came
// from the fingerprint cache.
type recOutcome struct {
	code    int
	version string
	cached  bool
}

func (o recOutcome) canary() bool { return strings.HasPrefix(o.version, "cand-") }

func sendRec(t testing.TB, base string, iv []float64) recOutcome {
	t.Helper()
	body, err := json.Marshal(map[string]any{"insight": iv, "beam_width": 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/recommend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := recOutcome{code: resp.StatusCode, version: resp.Header.Get("X-Model-Version")}
	var parsed struct {
		ModelVersion string `json:"model_version"`
		Cached       bool   `json:"cached"`
	}
	if json.Unmarshal(raw, &parsed) == nil {
		if parsed.ModelVersion != "" {
			out.version = parsed.ModelVersion
		}
		out.cached = parsed.Cached
	}
	return out
}

// lifecyclePost drives one action through POST /debug/lifecycle — the
// same path insightalign-ctl takes.
func lifecyclePost(t testing.TB, base, action, path, reason string) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"action": action, "path": path, "reason": reason})
	resp, err := http.Post(base+"/debug/lifecycle", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, raw
}

// lifecycleStatus fetches GET /debug/lifecycle.
func lifecycleStatus(t testing.TB, base string) Status {
	t.Helper()
	resp, err := http.Get(base + "/debug/lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/lifecycle: %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// e2eThresholds are permissive everywhere except the gate under test:
// individual scenarios tighten exactly one trip wire so the journaled
// rollback reason is unambiguous.
func e2eThresholds() Thresholds {
	return Thresholds{
		MinShadowSamples:    4,
		MaxShadowDelta:      1,
		MaxShadowErrorRatio: 0.05,
		MinCanarySamples:    4,
		PromoteSamples:      12,
		MaxErrorRatio:       0.9,
		MaxLatencyRatio:     1000, // micro-decode latency variance must not trip unrelated scenarios
		MaxQoRRegression:    1000,
	}
}

// TestE2EPromotion is the good-candidate path over live HTTP: submit via
// the debug endpoint, shadow passes on journal replay, every request
// canaries (weight 1), the promote gate cuts over, and the journal holds
// exactly [submitted, canary_start, promoted].
func TestE2EPromotion(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 101)
	j, err := obs.OpenJournal(filepath.Join(dir, "lifecycle.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(Config{
		Registry:     reg,
		Journal:      j,
		Thresholds:   e2eThresholds(),
		CanaryWeight: 1,
		ShadowReplay: filepath.Join(dir, "replay.jsonl"),
		Logger:       quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := startE2E(t, reg, ctl, nil)
	t.Cleanup(env.stop)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 77) })
	liveVersion := reg.Version()

	code, _ := lifecyclePost(t, env.ts.URL, "submit", candPath, "")
	if code != http.StatusOK {
		t.Fatalf("submit via debug endpoint: %d", code)
	}
	st := lifecycleStatus(t, env.ts.URL)
	if st.State != "canary" || !strings.HasPrefix(st.Candidate, "cand-") {
		t.Fatalf("post-submit status: state=%q candidate=%q", st.State, st.Candidate)
	}

	rng := rand.New(rand.NewSource(201))
	dim := reg.Config().InsightDim
	// Exactly PromoteSamples candidate-routed requests; at weight 1 every
	// request is the canary arm, and the 12th flips the promote gate.
	for i := 0; i < 12; i++ {
		o := sendRec(t, env.ts.URL, randVec(rng, dim))
		if o.code != http.StatusOK || !o.canary() {
			t.Fatalf("request %d during weight-1 canary: code=%d version=%q", i, o.code, o.version)
		}
	}
	if got := ctl.State(); got != StateIdle {
		t.Fatalf("state after promote gate = %v, want idle", got)
	}
	after := reg.Version()
	if after == liveVersion || !strings.HasPrefix(after, "v2-") {
		t.Fatalf("promotion did not cut over: %q -> %q", liveVersion, after)
	}
	// Post-promotion traffic serves the promoted version, never cand-.
	o := sendRec(t, env.ts.URL, randVec(rng, dim))
	if o.code != http.StatusOK || o.version != after {
		t.Fatalf("post-promotion response: code=%d version=%q want %q", o.code, o.version, after)
	}
	st = lifecycleStatus(t, env.ts.URL)
	if st.State != "idle" || st.Live != after {
		t.Fatalf("post-promotion status: %+v", st)
	}
	expectActions(t, journalActions(t, j.Path()), []string{"submitted", "canary_start", "promoted"})
	evs := journalEvents(t, j.Path())
	promoted := evs[len(evs)-1]
	if promoted.From != liveVersion || promoted.To != after || promoted.Samples != 12 {
		t.Fatalf("promoted event %+v, want from=%q to=%q samples=12", promoted, liveVersion, after)
	}
}

// TestE2EQoRRollback is the QoR-regressing path: a max-entropy candidate
// passes a deliberately loose shadow gate, canaries at weight 0.5 with the
// response cache live, regresses mean log-prob past the gate, and rolls
// back — after which zero responses carry the candidate tag, the file is
// quarantined, resubmission 409s, and the cache was never polluted.
func TestE2EQoRRollback(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 103)
	j, err := obs.OpenJournal(filepath.Join(dir, "lifecycle.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	thr := e2eThresholds()
	thr.MaxShadowDelta = 1000 // let the regressing candidate through to canary
	thr.MinCanarySamples = 8
	thr.PromoteSamples = 10000
	thr.MaxQoRRegression = 1 // the gate under test
	ctl, err := New(Config{
		Registry:      reg,
		Journal:       j,
		Thresholds:    thr,
		CanaryWeight:  0.5,
		ShadowReplay:  filepath.Join(dir, "replay.jsonl"),
		QuarantineDir: filepath.Join(dir, "quarantine"),
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cache := retrieve.NewCache(256)
	env := startE2E(t, reg, ctl, func(cfg *serve.Config) { cfg.Cache = cache })
	t.Cleanup(env.stop)
	candPath := candidateFrom(t, dir, live, zeroOutProj)
	liveVersion := reg.Version()

	if code, body := lifecyclePost(t, env.ts.URL, "submit", candPath, ""); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	if ctl.State() != StateCanary {
		t.Fatal("regressing candidate did not reach canary through the loose shadow gate")
	}

	rng := rand.New(rand.NewSource(301))
	dim := reg.Config().InsightDim
	insights := make([][]float64, 120)
	for i := range insights {
		insights[i] = randVec(rng, dim)
	}

	// Cache-bypass regression check while the canary is live: the first
	// candidate-routed insight must decode on the candidate on EVERY
	// repeat — a hit stamped with the live version would mask the canary —
	// and a live-routed insight must hit the cache on its second request.
	var candIdx, liveIdx = -1, -1
	for i := range insights {
		o := sendRec(t, env.ts.URL, insights[i])
		if o.canary() && candIdx < 0 {
			candIdx = i
		}
		if !o.canary() && liveIdx < 0 {
			liveIdx = i
		}
		if candIdx >= 0 && liveIdx >= 0 {
			break
		}
	}
	if candIdx < 0 || liveIdx < 0 {
		t.Fatalf("weight-0.5 canary did not split the first probes (cand=%d live=%d)", candIdx, liveIdx)
	}
	for rep := 0; rep < 3 && ctl.State() == StateCanary; rep++ {
		o := sendRec(t, env.ts.URL, insights[candIdx])
		if !o.canary() || o.cached {
			t.Fatalf("repeat %d of canary-routed insight: version=%q cached=%v", rep, o.version, o.cached)
		}
	}
	if o := sendRec(t, env.ts.URL, insights[liveIdx]); !o.cached || o.version != liveVersion {
		t.Fatalf("repeat of live-routed insight: version=%q cached=%v, want cached live hit", o.version, o.cached)
	}

	// Drive distinct insights until the verdict engine has both arms past
	// MinCanarySamples and trips on the QoR regression.
	candSeen := 0
	for _, iv := range insights {
		o := sendRec(t, env.ts.URL, iv)
		if o.canary() {
			candSeen++
		}
		if ctl.State() == StateIdle {
			break
		}
	}
	if got := ctl.State(); got != StateIdle {
		t.Fatalf("canary never rolled back after %d candidate responses (state %v)", candSeen, got)
	}
	expectActions(t, journalActions(t, j.Path()), []string{"submitted", "canary_start", "rolled_back"})
	evs := journalEvents(t, j.Path())
	rb := evs[len(evs)-1]
	if rb.Phase != "canary" || !strings.Contains(rb.Reason, "QoR regression") {
		t.Fatalf("rolled_back event %+v, want canary-phase QoR regression", rb)
	}

	// Acceptance: zero candidate responses after the rollback decision.
	for _, iv := range insights {
		o := sendRec(t, env.ts.URL, iv)
		if o.canary() {
			t.Fatalf("candidate response %q after rollback", o.version)
		}
		if o.code != http.StatusOK || o.version != liveVersion {
			t.Fatalf("post-rollback response: code=%d version=%q", o.code, o.version)
		}
	}
	// The candidate never polluted the version-stamped cache: its file is
	// quarantined and resubmitting it is refused with 409.
	if _, err := os.Stat(candPath); !os.IsNotExist(err) {
		t.Fatalf("candidate file still present after rollback (err=%v)", err)
	}
	qPath := filepath.Join(dir, "quarantine", filepath.Base(candPath))
	if _, err := os.Stat(qPath); err != nil {
		t.Fatalf("quarantined candidate missing: %v", err)
	}
	if code, body := lifecyclePost(t, env.ts.URL, "submit", qPath, ""); code != http.StatusConflict {
		t.Fatalf("resubmit of quarantined candidate: %d %s, want 409", code, body)
	}
}

// TestE2ELatencyRollback is the latency-regressing path: a QoR-neutral
// candidate whose decode seam sleeps 50ms per request against a
// microsecond-scale live arm trips the p95 ratio gate.
func TestE2ELatencyRollback(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 107)
	j, err := obs.OpenJournal(filepath.Join(dir, "lifecycle.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	thr := e2eThresholds()
	thr.MinCanarySamples = 6
	thr.PromoteSamples = 10000
	thr.MaxLatencyRatio = 3 // the gate under test
	ctl, err := New(Config{
		Registry:     reg,
		Journal:      j,
		Thresholds:   thr,
		CanaryWeight: 0.5,
		ShadowReplay: filepath.Join(dir, "replay.jsonl"),
		CandidateHook: func(ctx context.Context) error {
			select {
			case <-time.After(50 * time.Millisecond):
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := startE2E(t, reg, ctl, nil)
	t.Cleanup(env.stop)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 11) })

	if code, body := lifecyclePost(t, env.ts.URL, "submit", candPath, ""); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	if ctl.State() != StateCanary {
		t.Fatal("candidate did not reach canary")
	}
	rng := rand.New(rand.NewSource(401))
	dim := reg.Config().InsightDim
	for i := 0; i < 120 && ctl.State() == StateCanary; i++ {
		sendRec(t, env.ts.URL, randVec(rng, dim))
	}
	if got := ctl.State(); got != StateIdle {
		t.Fatalf("latency-regressing canary never rolled back (state %v)", got)
	}
	expectActions(t, journalActions(t, j.Path()), []string{"submitted", "canary_start", "rolled_back"})
	evs := journalEvents(t, j.Path())
	if rb := evs[len(evs)-1]; !strings.Contains(rb.Reason, "latency ratio") {
		t.Fatalf("rolled_back reason %q, want latency ratio", rb.Reason)
	}
}

// TestE2EErrorRollback is the availability path: the candidate decode
// seam injects a deterministic 502 on every candidate-routed request via
// faultinject, the clients see the failures attributed to the cand-
// version, and the error-ratio gate rolls back without needing a live
// baseline.
func TestE2EErrorRollback(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	writeReplayJournal(t, filepath.Join(dir, "replay.jsonl"), live, 6, 109)
	j, err := obs.OpenJournal(filepath.Join(dir, "lifecycle.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	thr := e2eThresholds()
	thr.PromoteSamples = 10000
	thr.MaxErrorRatio = 0.10 // the gate under test
	inj := faultinject.New(faultinject.Config{
		Seed:   5,
		Rate:   1,
		Stages: []string{"candidate"},
		Kinds:  []faultinject.Kind{faultinject.Error},
	})
	ctl, err := New(Config{
		Registry:      reg,
		Journal:       j,
		Thresholds:    thr,
		CanaryWeight:  0.5,
		ShadowReplay:  filepath.Join(dir, "replay.jsonl"),
		CandidateHook: inj.HookFunc("candidate"),
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := startE2E(t, reg, ctl, nil)
	t.Cleanup(env.stop)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 13) })

	if code, body := lifecyclePost(t, env.ts.URL, "submit", candPath, ""); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	rng := rand.New(rand.NewSource(501))
	dim := reg.Config().InsightDim
	fails := 0
	for i := 0; i < 120 && ctl.State() == StateCanary; i++ {
		o := sendRec(t, env.ts.URL, randVec(rng, dim))
		if o.canary() {
			if o.code != http.StatusBadGateway {
				t.Fatalf("candidate-routed request %d: code=%d, want 502", i, o.code)
			}
			fails++
		} else if o.code != http.StatusOK {
			t.Fatalf("live-routed request %d failed: %d", i, o.code)
		}
	}
	if got := ctl.State(); got != StateIdle {
		t.Fatalf("all-502 canary never rolled back (state %v)", got)
	}
	if fails < thr.MinCanarySamples {
		t.Fatalf("only %d candidate failures observed before rollback", fails)
	}
	expectActions(t, journalActions(t, j.Path()), []string{"submitted", "canary_start", "rolled_back"})
	evs := journalEvents(t, j.Path())
	if rb := evs[len(evs)-1]; !strings.Contains(rb.Reason, "error ratio") {
		t.Fatalf("rolled_back reason %q, want error ratio", rb.Reason)
	}
	if inj.Applied(faultinject.Error) == 0 {
		t.Fatal("injector never fired")
	}
	// After the rollback decision no request reaches the broken candidate.
	for i := 0; i < 32; i++ {
		if o := sendRec(t, env.ts.URL, randVec(rng, dim)); o.code != http.StatusOK || o.canary() {
			t.Fatalf("post-rollback request: code=%d version=%q", o.code, o.version)
		}
	}
}

// TestE2ECrashResume kills the serving process mid-canary (no terminal
// verdict journaled) and restarts everything from disk: the journal
// restores the canary, the hash-derived salt reproduces the exact sticky
// fingerprint split, and the resumed canary drives on to promotion.
func TestE2ECrashResume(t *testing.T) {
	dir := t.TempDir()
	reg1, live, livePath := liveRegistry(t, dir)
	replay := filepath.Join(dir, "replay.jsonl")
	writeReplayJournal(t, replay, live, 6, 113)
	jpath := filepath.Join(dir, "lifecycle.jsonl")
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 17) })
	thr := e2eThresholds()
	thr.PromoteSamples = 30

	mkCtl := func(reg *serve.Registry) *Controller {
		j, err := obs.OpenJournal(jpath)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Config{
			Registry:     reg,
			Journal:      j,
			Thresholds:   thr,
			CanaryWeight: 0.5,
			ShadowReplay: replay,
			Logger:       quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	ctl1 := mkCtl(reg1)
	env1 := startE2E(t, reg1, ctl1, nil)
	if code, body := lifecyclePost(t, env1.ts.URL, "submit", candPath, ""); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	if ctl1.State() != StateCanary {
		t.Fatal("candidate did not reach canary")
	}
	rng := rand.New(rand.NewSource(601))
	dim := reg1.Config().InsightDim
	insights := make([][]float64, 40)
	arm1 := make([]bool, len(insights))
	for i := range insights {
		insights[i] = randVec(rng, dim)
		o := sendRec(t, env1.ts.URL, insights[i])
		if o.code != http.StatusOK {
			t.Fatalf("request %d: %d", i, o.code)
		}
		arm1[i] = o.canary()
	}
	// Crash: tear the whole process down with the canary still undecided.
	env1.stop()
	expectActions(t, journalActions(t, jpath), []string{"submitted", "canary_start"})

	// Restart: fresh registry from disk, fresh controller, journal resume.
	reg2, err := serve.NewRegistry(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.LoadFile(livePath); err != nil {
		t.Fatal(err)
	}
	ctl2 := mkCtl(reg2)
	if err := ctl2.Resume(); err != nil {
		t.Fatal(err)
	}
	if got := ctl2.State(); got != StateCanary {
		t.Fatalf("resumed state = %v, want canary", got)
	}
	env2 := startE2E(t, reg2, ctl2, nil)
	t.Cleanup(env2.stop)

	// The same insights ride the same arms: sticky across the crash.
	for i, iv := range insights {
		o := sendRec(t, env2.ts.URL, iv)
		if o.code != http.StatusOK {
			t.Fatalf("resumed request %d: %d", i, o.code)
		}
		if o.canary() != arm1[i] {
			t.Fatalf("insight %d switched arms across resume (was canary=%v)", i, arm1[i])
		}
	}
	// Drive the resumed canary to promotion: counts restarted at resume,
	// so keep cycling the insight set until the gate flips.
	for round := 0; round < 10 && ctl2.State() == StateCanary; round++ {
		for _, iv := range insights {
			sendRec(t, env2.ts.URL, iv)
			if ctl2.State() != StateCanary {
				break
			}
		}
	}
	if got := ctl2.State(); got != StateIdle {
		t.Fatalf("resumed canary never promoted (state %v)", got)
	}
	after := reg2.Version()
	if !strings.HasPrefix(after, "v2-") {
		t.Fatalf("promotion after resume installed %q", after)
	}
	if o := sendRec(t, env2.ts.URL, insights[0]); o.version != after || o.canary() {
		t.Fatalf("post-promotion response version %q, want %q", o.version, after)
	}
	expectActions(t, journalActions(t, jpath),
		[]string{"submitted", "canary_start", "resumed", "promoted"})
}

// TestE2EMirroredShadow drives the shadow phase from live traffic alone:
// no replay journal, every request mirrored to the async shadow worker,
// and the gate passes once enough mirrored comparisons land. The
// operator then force-promotes through the debug endpoint.
func TestE2EMirroredShadow(t *testing.T) {
	dir := t.TempDir()
	reg, live, _ := liveRegistry(t, dir)
	j, err := obs.OpenJournal(filepath.Join(dir, "lifecycle.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	thr := e2eThresholds()
	thr.MinShadowSamples = 3
	ctl, err := New(Config{
		Registry:          reg,
		Journal:           j,
		Thresholds:        thr,
		CanaryWeight:      0.5,
		ShadowSampleEvery: 1,
		Logger:            quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	env := startE2E(t, reg, ctl, nil)
	t.Cleanup(env.stop)
	candPath := candidateFrom(t, dir, live, func(m *core.Model) { jitterParams(m, 1e-9, 19) })

	if code, body := lifecyclePost(t, env.ts.URL, "submit", candPath, ""); code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	if got := ctl.State(); got != StateShadow {
		t.Fatalf("state after submit without replay = %v, want shadow", got)
	}
	// Shadow decodes are off the response path: these live requests are
	// answered by the live model while the worker scores the mirror copies.
	rng := rand.New(rand.NewSource(701))
	dim := reg.Config().InsightDim
	liveVersion := reg.Version()
	deadline := time.Now().Add(10 * time.Second)
	for ctl.State() == StateShadow {
		if time.Now().After(deadline) {
			t.Fatalf("shadow gate never resolved (stats %+v)", lifecycleStatus(t, env.ts.URL).Shadow)
		}
		o := sendRec(t, env.ts.URL, randVec(rng, dim))
		// The worker can pass the gate while this request is in flight, so
		// a candidate answer is wrong only if the shadow phase still holds
		// after it: the controller never moves from canary back to shadow.
		if o.code != http.StatusOK || (o.version != liveVersion && (!o.canary() || ctl.State() == StateShadow)) {
			t.Fatalf("shadow-phase response: code=%d version=%q, want live %q", o.code, o.version, liveVersion)
		}
	}
	if got := ctl.State(); got != StateCanary {
		t.Fatalf("state after mirrored shadow = %v, want canary", got)
	}
	if code, body := lifecyclePost(t, env.ts.URL, "promote", "", ""); code != http.StatusOK {
		t.Fatalf("operator promote: %d %s", code, body)
	}
	if !strings.HasPrefix(reg.Version(), "v2-") {
		t.Fatalf("operator promote installed %q", reg.Version())
	}
	expectActions(t, journalActions(t, j.Path()), []string{"submitted", "canary_start", "promoted"})
}
