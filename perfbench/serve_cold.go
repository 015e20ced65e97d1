package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/nn"
	"insightalign/internal/serve"
)

// serve_cold: one replica with server defaults (micro-batching on, cache
// and store off) over a checkpoint minted from the seed. An open-loop
// Poisson schedule sends K=5 requests, each with a fresh insight vector, at
// a fixed rate; then the first coldDrainShots of them are sent again back
// to back (the drains), and capacity_rps is the rate at which they are
// answered. A rate ladder for the highest rate whose tail latency stayed
// under a limit was tried first, and dropped: near the knee two attempts
// at one rate gave p99s two to three times apart, and its capacity moved
// by a quarter between seeds (a least-squares fit of p95 on the rate moved
// as much), against a few percent for the drains.
const (
	coldRate       = 200.0 // offered rate of the fixed phase, requests/s
	coldFixedShare = 0.75  // share of --seconds spent in the fixed phase
	coldDrainShots = 1500  // requests per drain
	beamK          = 5
)

// insightVec draws one standard-normal insight vector.
func insightVec(rng *rand.Rand, dim int) []float64 {
	iv := make([]float64, dim)
	for i := range iv {
		iv[i] = rng.NormFloat64()
	}
	return iv
}

// requestBody encodes one K=5 request.
func requestBody(iv []float64) []byte {
	b, err := json.Marshal(serve.RecommendRequest{Insight: iv, BeamWidth: beamK})
	if err != nil {
		panic(err) // a float slice always encodes
	}
	return b
}

// checkpoint is a model file minted from the seed, with the version the
// serving registry stamps on it and the model it loads.
type checkpoint struct {
	path    string
	version string
	model   *core.Model
}

// mintCheckpoint writes a freshly initialized model seeded by seed and
// loads it back through the serving registry.
func mintCheckpoint(dir string, seed int64) (checkpoint, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	m, err := core.New(cfg)
	if err != nil {
		return checkpoint{}, err
	}
	path := filepath.Join(dir, fmt.Sprintf("model-seed%d.bin", seed))
	if err := nn.SaveParamsFile(path, m.Params()); err != nil {
		return checkpoint{}, fmt.Errorf("mint checkpoint: %w", err)
	}
	reg, err := serve.NewRegistry(core.DefaultConfig())
	if err != nil {
		return checkpoint{}, err
	}
	snap, err := reg.LoadFile(path)
	if err != nil {
		return checkpoint{}, err
	}
	return checkpoint{path: path, version: snap.Version, model: snap.Model}, nil
}

// coldSchedule is the serve_cold input, drawn from the seed.
type coldSchedule struct {
	ivs   [][]float64 // every request's insight, by input index
	fixed []shot
}

func newColdSchedule(seed int64, seconds int) *coldSchedule {
	rng := rand.New(rand.NewSource(seed))
	n := int(coldRate * float64(seconds) * coldFixedShare)
	dues := poisson(rng, n, coldRate, 0)
	cs := &coldSchedule{}
	for i := 0; i < n; i++ {
		iv := insightVec(rng, core.DefaultConfig().InsightDim)
		cs.ivs = append(cs.ivs, iv)
		cs.fixed = append(cs.fixed, shot{due: dues[i], input: i, body: requestBody(iv)})
	}
	return cs
}

// drainRepeats is how many drains a run times; it reports their median.
const drainRepeats = 3

// drain sends shots with every due time at zero, each time after reset
// (when not nil): the generator's workers then send back to back, each as
// soon as its previous answer arrived, and a drain's wall time is how long
// the program takes to answer the whole request set over e.conns
// connections. A drain during which the hypervisor took more than
// stealLimit of the machine's CPU time is run again after the machine
// calms, up to phaseRetries+1 extra drains while the run may retry, until
// drainRepeats were clean.
// It returns the median wall time of the clean drains (of all, if none
// was) and every request sent, for the oracle.
func drain(phase func(shots []shot) (measured, error), shots []shot, reset func() error) (time.Duration, []shot, []outcome, error) {
	zero := make([]shot, len(shots))
	for i, s := range shots {
		s.due = 0
		zero[i] = s
	}
	var clean, all []float64
	var sent []shot
	var outs []outcome
	for i := 0; len(clean) < drainRepeats && (i < drainRepeats || i < drainRepeats+phaseRetries+1 && mayRetry()); i++ {
		if reset != nil {
			if err := reset(); err != nil {
				return 0, sent, outs, err
			}
		}
		runtime.GC() // so no drain pays for an earlier phase's garbage
		m, err := phase(zero)
		if err != nil {
			return 0, sent, outs, err
		}
		all = append(all, m.wall.Seconds())
		if m.steal <= stealLimit {
			clean = append(clean, m.wall.Seconds())
		} else {
			waitCalm()
		}
		sent, outs = append(sent, m.shots...), append(outs, m.outs...)
	}
	if len(clean) == 0 {
		clean = all
	}
	return time.Duration(median(clean) * float64(time.Second)), sent, outs, nil
}

// coldServer starts one replica with server defaults on ck.
func coldServer(e env, ck checkpoint, client *http.Client, name string) (*proc, error) {
	args := append(append([]string{}, serveFlags...), "-model", ck.path)
	return launch(client, name, filepath.Join(e.bin, "insightalign-serve"), filepath.Join(e.dir, name+".log"), args, "/healthz", nil)
}

// measured holds the outcomes of one timed phase against real processes.
type measured struct {
	stats  phaseStats // over the outcomes due in clean windows
	steal  float64    // share of machine CPU time stolen by the hypervisor
	clean  float64    // share of the phase's time in clean windows
	hwmMB  float64    // peak resident set of the processes, summed
	outs   []outcome  // every outcome, for the oracle
	cpuSec float64    // server-side CPU over the clean windows
	wall   time.Duration
	before []scrape
	after  []scrape
	shots  []shot
}

// cpuSample is the machine's and the processes' CPU times at one moment.
type cpuSample struct {
	at    time.Time
	mach  cpuTimes
	procs float64
}

func sampleCPU(ps []*proc) (cpuSample, error) {
	mach, err := readCPUTimes()
	if err != nil {
		return cpuSample{}, err
	}
	procs, err := cpuOf(ps)
	return cpuSample{at: time.Now(), mach: mach, procs: procs}, err
}

// validityWindow is the grain at which a phase's time is judged clean:
// other guests' bursts on the shared box often lasted a few seconds, and
// a phase judged whole lost every sample to them.
const validityWindow = time.Second

// timedPhase runs shots against url with /proc and /metrics accounting of
// the processes ps around it. The CPU times are sampled every
// validityWindow; a window is clean when the hypervisor took no more than
// stealLimit of the machine's CPU time in it. When clean windows cover at
// least half the phase, its latencies are those of the requests due in
// them, and its server CPU is theirs; otherwise the whole phase counts.
func timedPhase(ctx context.Context, e env, client *http.Client, url string, ps []*proc, name string, rate float64, shots []shot) (measured, error) {
	before, err := scrapeAll(ctx, client, ps)
	if err != nil {
		return measured{}, err
	}
	first, err := sampleCPU(ps)
	if err != nil {
		return measured{}, err
	}
	stop := make(chan struct{})
	done := make(chan []cpuSample, 1)
	go func() {
		samples := []cpuSample{first}
		tick := time.NewTicker(validityWindow)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- samples
				return
			case <-tick.C:
				if s, err := sampleCPU(ps); err == nil {
					samples = append(samples, s)
				}
			}
		}
	}()
	t0 := time.Now()
	outs := openLoop(ctx, client, url+"/v1/recommend", shots, e.conns)
	wall := time.Since(t0)
	close(stop)
	samples := <-done
	last, err := sampleCPU(ps)
	if err != nil {
		return measured{}, err
	}
	samples = append(samples, last)
	after, err := scrapeAll(ctx, client, ps)
	if err != nil {
		return measured{}, err
	}
	hwm, err := hwmOf(ps)
	if err != nil {
		return measured{}, err
	}
	m := measured{steal: stealShare(first.mach, last.mach), hwmMB: hwm, outs: outs, wall: wall, before: before, after: after, shots: shots}
	kept, cpuSec, cleanDur := outs, last.procs-first.procs, time.Duration(0)
	var keptClean []outcome
	var cleanCPU float64
	for i := 0; i+1 < len(samples); i++ {
		a, b := samples[i], samples[i+1]
		if stealShare(a.mach, b.mach) > stealLimit {
			continue
		}
		cleanDur += b.at.Sub(a.at)
		cleanCPU += b.procs - a.procs
		for _, o := range outs {
			if !o.dueAt.Before(a.at) && o.dueAt.Before(b.at) {
				keptClean = append(keptClean, o)
			}
		}
	}
	m.clean = float64(cleanDur) / float64(last.at.Sub(first.at))
	if m.clean >= 0.5 && len(keptClean) > 0 {
		kept, cpuSec = keptClean, cleanCPU
	}
	m.stats, m.cpuSec = summarize(name, rate, kept), cpuSec
	all := summarize(name, rate, outs)
	detail("phase", map[string]any{"stats": m.stats, "steal_share": m.steal, "clean_share": m.clean,
		"all": map[string]int{"sent": all.Sent, "succeeded": all.Succeeded, "failed": all.Failed}})
	return m, nil
}

// A timed phase is invalid when clean windows (see timedPhase) cover less
// than half of it, or the generator's own timer wake-ups ran more than
// lagLimitMS (p99) late. On the shared 2-CPU
// box quiet phases showed 1.1-1.4 ms of lag; phases with more were the
// ones in which other guests held the CPUs, and their latencies and CPU
// per request rose with it, by up to half.
const (
	stealLimit   = 0.02
	lagLimitMS   = 1.5
	phaseRetries = 1
)

func (m measured) valid() bool { return m.clean >= 0.5 && m.stats.LagP99ms <= lagLimitMS }

// waitCalm returns once a one-second probe of the machine shows no more
// than stealLimit of its CPU time stolen, after at most calmWait, or at
// once when the run may no longer wait: a timed phase started inside
// another guest's burst was invalid, and so was its immediate retry.
func waitCalm() {
	deadline := time.Now().Add(calmWait)
	for mayRetry() {
		a, err1 := readCPUTimes()
		time.Sleep(time.Second)
		b, err2 := readCPUTimes()
		if err1 != nil || err2 != nil || stealShare(a, b) <= stealLimit || time.Now().After(deadline) {
			return
		}
	}
}

// calmWait bounds one wait for a quiet machine.
const calmWait = 20 * time.Second

// retryWindow is how long into a run waits for a quiet machine, and
// retries of disturbed phases, drains and pipelines, may still begin, so
// that a run in a long burst of other guests' load still ends in time.
const retryWindow = 60 * time.Second

var retryDeadline = time.Now().Add(retryWindow)

func mayRetry() bool { return time.Now().Before(retryDeadline) }

// validPhase runs a timed phase, and again after reset while it is invalid,
// at most phaseRetries more times, keeping the attempt whose generator ran
// closest to its schedule. The outcomes of discarded attempts are returned
// too: every response is checked by the oracle.
func validPhase(run func() (measured, error), reset func() error) (measured, []shot, []outcome, error) {
	waitCalm()
	best, err := run()
	if err != nil {
		return best, nil, nil, err
	}
	var shots []shot
	var outs []outcome
	for try := 0; try < phaseRetries && !best.valid() && mayRetry(); try++ {
		detail("invalid_phase", map[string]any{"phase": best.stats.Name, "clean_share": best.clean, "lag_p99_ms": best.stats.LagP99ms})
		if reset != nil {
			if err := reset(); err != nil {
				return best, shots, outs, err
			}
		}
		waitCalm()
		m, err := run()
		if err != nil {
			return best, shots, outs, err
		}
		if m.stats.LagP99ms < best.stats.LagP99ms {
			best, m = m, best
		}
		shots, outs = append(shots, m.shots...), append(outs, m.outs...)
	}
	return best, shots, outs, nil
}

// oracleCold checks every response against in-process BeamSearch on the
// same checkpoint and returns the number of mismatches.
func oracleCold(ck checkpoint, ivs [][]float64, shots []shot, outs []outcome) int {
	var f findings
	parallel(len(shots), func(i int) {
		o := outs[i]
		if !o.ok() {
			return // counted as failed by the generator
		}
		r, err := decodeResponse(o.body)
		if err == nil {
			err = checkExact(r, ck.model.BeamSearch(ivs[shots[i].input], beamK), ck.version)
		}
		if err != nil {
			f.add("request %d: %v", i, err)
		}
	})
	detail("oracle", map[string]any{"checked": len(shots), "wrong": f.n, "first": f.first})
	return f.n
}

func runServeCold(ctx context.Context, e env, trace bool) (report, error) {
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	sched := newColdSchedule(e.seed, e.seconds)

	setups := setupRepeats
	if trace {
		setups = 1
	}
	type up struct {
		ck  checkpoint
		srv *proc
	}
	var n int
	u, setupS, err := timeSetup(setups, func() (up, error) {
		n++
		ck, err := mintCheckpoint(e.dir, e.seed)
		if err != nil {
			return up{}, err
		}
		srv, err := coldServer(e, ck, client, fmt.Sprintf("serve%d", n))
		return up{ck, srv}, err
	}, func(u up) { u.srv.stop() })
	if err != nil {
		return report{}, err
	}
	defer u.srv.stop()
	ps := []*proc{u.srv}

	fixed, shots, outs, err := validPhase(func() (measured, error) {
		return timedPhase(ctx, e, client, u.srv.url, ps, "fixed", coldRate, sched.fixed)
	}, nil)
	if err != nil {
		return report{}, err
	}
	rep := report{metrics: map[string]float64{}}
	shots, outs = append(shots, fixed.shots...), append(outs, fixed.outs...)
	if trace {
		xs, xo, err := coldLayers(ctx, e, sched, u.ck, fixed, &rep)
		if err != nil {
			return report{}, err
		}
		shots, outs = append(shots, xs...), append(outs, xo...)
	} else {
		drained := sched.fixed[:min(coldDrainShots, len(sched.fixed))]
		wall, ds, do, err := drain(func(shots []shot) (measured, error) {
			return timedPhase(ctx, e, client, u.srv.url, ps, "drain", 0, shots)
		}, drained, nil)
		if err != nil {
			return report{}, err
		}
		shots, outs = append(shots, ds...), append(outs, do...)
		rep.metrics["setup_s"] = setupS
		rep.metrics["latency_p50_ms"] = fixed.stats.P50ms
		rep.metrics["latency_p95_ms"] = fixed.stats.P95ms
		rep.metrics["capacity_rps"] = float64(len(drained)) / wall.Seconds()
		rep.metrics["cpu_ms_per_req"] = fixed.cpuSec * 1000 / float64(max(fixed.stats.Succeeded, 1))
		rep.metrics["peak_rss_mb"] = fixed.hwmMB
		// No real value: the fixed phase's wall time, the schedule's
		// length unless the server falls behind it (METRICS.md).
		rep.metrics["wall_s"] = fixed.wall.Seconds()
		detail("samples", map[string]int{"latency": len(fixed.outs), "drained": len(do)})
	}
	u.srv.stop()

	rep.attempted = len(outs)
	for _, o := range outs {
		if !o.ok() {
			rep.failed += 1
		}
	}
	rep.failed += oracleCold(u.ck, sched.ivs, shots, outs)
	rep.metrics["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	return rep, nil
}

// latencies returns the sorted latencies (ms) of successful outcomes.
func latencies(outs []outcome) []float64 {
	var xs []float64
	for _, o := range outs {
		if o.ok() {
			xs = append(xs, msOf(o.latency))
		}
	}
	sort.Float64s(xs)
	return xs
}
