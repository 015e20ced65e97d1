package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"

	"insightalign/internal/core"
	"insightalign/internal/recipe"
	"insightalign/internal/serve"
	"insightalign/internal/tensor"
)

// fleet_hot: the router over two -cache replicas, all separate processes,
// on an open-loop fixed-rate schedule of a fixed request count. A
// Zipf-skewed hot pool of designs is mixed with one-off designs: hot
// requests hit the version-stamped cache behind consistent-hash affinity;
// each one-off misses, decodes warm-started from the store and adds to it.
// The response cache is sized so the one-offs overflow it within a run,
// so LRU eviction runs during the timed window. The one-off share sets the
// hit ratio, and is chosen to give the 0.84 that an earlier probe of this
// fleet measured. wall_s is timed on drains of the same requests; the workload
// has no capacity measure (METRICS.md gives the reasons).
const (
	fleetRate      = 200.0 // offered rate of the fixed phase, requests/s
	fleetShare     = 0.8   // share of --seconds spent in the fixed phase
	fleetHotPool   = 300   // distinct hot designs
	fleetZipfS     = 1.1   // Zipf exponent of the hot pool
	fleetTailShare = 0.05  // share of one-off designs: hit ratio 0.84
	fleetCacheSize = 256   // response-cache entries per replica
	fleetReplicas  = 2
)

var fleetReplicaFlags = []string{"-cache", "-cache-size", fmt.Sprint(fleetCacheSize)}

// fleetSchedule is the fleet_hot input, drawn from the seed.
type fleetSchedule struct {
	ivs   [][]float64 // hot pool first, then one-offs, by input index
	fixed []shot
}

func newFleetSchedule(seed int64, seconds int) *fleetSchedule {
	rng := rand.New(rand.NewSource(seed))
	dim := core.DefaultConfig().InsightDim
	fs := &fleetSchedule{}
	zipf := rand.NewZipf(rng, fleetZipfS, 1, fleetHotPool-1)
	for i := 0; i < fleetHotPool; i++ {
		fs.ivs = append(fs.ivs, insightVec(rng, dim))
	}
	n := int(fleetRate * float64(seconds) * fleetShare)
	dues := poisson(rng, n, fleetRate, 0)
	for i := 0; i < n; i++ {
		input := int(zipf.Uint64())
		if rng.Float64() < fleetTailShare {
			fs.ivs = append(fs.ivs, insightVec(rng, dim))
			input = len(fs.ivs) - 1
		}
		fs.fixed = append(fs.fixed, shot{due: dues[i], input: input, body: requestBody(fs.ivs[input])})
	}
	return fs
}

// cluster is the router and its replicas, each its own process.
type cluster struct {
	router   *proc
	replicas []*proc
}

func (f cluster) all() []*proc { return append([]*proc{f.router}, f.replicas...) }

func (f cluster) stop() {
	for _, p := range f.all() {
		if p != nil {
			p.stop()
		}
	}
}

// startFleet boots the replicas, waits for each to be healthy, then boots
// the router and waits until it reports every replica in its ring.
func startFleet(e env, ck checkpoint, client *http.Client, tag string) (cluster, error) {
	var f cluster
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		name := fmt.Sprintf("replica%d-%s", i, tag)
		args := append(append(append([]string{}, serveFlags...), "-model", ck.path), fleetReplicaFlags...)
		p, err := launch(client, name, filepath.Join(e.bin, "insightalign-serve"), filepath.Join(e.dir, name+".log"), args, "/healthz", nil)
		if err != nil {
			f.stop()
			return cluster{}, err
		}
		f.replicas = append(f.replicas, p)
		urls = append(urls, p.url)
	}
	args := append(append([]string{}, routerFlags...), "-replicas", strings.Join(urls, ","))
	rt, err := launch(client, "router-"+tag, filepath.Join(e.bin, "insightalign-router"), filepath.Join(e.dir, "router-"+tag+".log"), args, "/healthz", func(body []byte) bool {
		var h struct {
			Status      string `json:"status"`
			RingMembers int    `json:"ring_members"`
		}
		return json.Unmarshal(body, &h) == nil && h.Status == "ok" && h.RingMembers == fleetReplicas
	})
	if err != nil {
		f.stop()
		return cluster{}, err
	}
	f.router = rt
	return f, nil
}

// oracleFleet checks every response with the order-free invariants of a
// store-seeded decode. Identical responses for one design are checked once.
func oracleFleet(ck checkpoint, ivs [][]float64, shots []shot, outs []outcome) int {
	type key struct {
		input int
		cands string
	}
	var f findings
	checked := map[key]error{}
	var keys []key
	var idx []int // first shot of each key
	parsed := make([]serve.RecommendResponse, len(outs))
	for i, o := range outs {
		if !o.ok() {
			continue
		}
		r, err := decodeResponse(o.body)
		if err != nil {
			f.add("request %d: %v", i, err)
			continue
		}
		parsed[i] = r
		c, _ := json.Marshal(struct {
			V string
			C []serve.CandidateJSON
		}{r.ModelVersion, r.Candidates})
		k := key{shots[i].input, string(c)}
		if _, ok := checked[k]; !ok {
			checked[k] = nil
			keys = append(keys, k)
			idx = append(idx, i)
		}
	}
	errs := make([]error, len(keys))
	tensor.NoGrad(func() {
		parallel(len(keys), func(j int) {
			i := idx[j]
			iv := ivs[shots[i].input]
			cold := ck.model.BeamSearch(iv, beamK)
			errs[j] = checkSeeded(parsed[i], cold, ck.version, func(s recipe.Set) float64 {
				return ck.model.LogProb(iv, s.Bits()).Item()
			})
		})
	})
	for j, err := range errs {
		checked[keys[j]] = err
	}
	for i, o := range outs {
		if !o.ok() || parsed[i].Candidates == nil {
			continue
		}
		c, _ := json.Marshal(struct {
			V string
			C []serve.CandidateJSON
		}{parsed[i].ModelVersion, parsed[i].Candidates})
		if err := checked[key{shots[i].input, string(c)}]; err != nil {
			f.add("request %d: %v", i, err)
		}
	}
	detail("oracle", map[string]any{"checked": len(shots), "distinct": len(keys), "wrong": f.n, "first": f.first})
	return f.n
}

func runFleetHot(ctx context.Context, e env, trace bool) (report, error) {
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	sched := newFleetSchedule(e.seed, e.seconds)

	setups := setupRepeats
	if trace {
		setups = 1
	}
	type up struct {
		ck checkpoint
		f  cluster
	}
	var n int
	u, setupS, err := timeSetup(setups, func() (up, error) {
		n++
		ck, err := mintCheckpoint(e.dir, e.seed)
		if err != nil {
			return up{}, err
		}
		f, err := startFleet(e, ck, client, fmt.Sprint(n))
		return up{ck, f}, err
	}, func(u up) { u.f.stop() })
	if err != nil {
		return report{}, err
	}
	defer func() { u.f.stop() }() // u.f changes when a phase is retried

	// A retry starts a fresh fleet, so the store and caches begin empty.
	fixed, shots, outs, err := validPhase(func() (measured, error) {
		return timedPhase(ctx, e, client, u.f.router.url, u.f.all(), "fixed", fleetRate, sched.fixed)
	}, func() error {
		u.f.stop()
		n++
		u.f, err = startFleet(e, u.ck, client, fmt.Sprint(n))
		return err
	})
	if err != nil {
		return report{}, err
	}
	rep := report{metrics: map[string]float64{}}
	shots, outs = append(shots, fixed.shots...), append(outs, fixed.outs...)
	if trace {
		xs, xo, err := fleetLayers(ctx, e, sched, u.ck, u.f, fixed, &rep)
		if err != nil {
			return report{}, err
		}
		shots, outs = append(shots, xs...), append(outs, xo...)
	} else {
		// Each drain sends the same requests back to back to a fresh
		// fleet, so its store and caches fill from empty as in the fixed
		// phase, over one connection: with two, router, replicas and
		// client contended for the 2-CPU box and drains of one run moved
		// by a quarter.
		e1 := e
		e1.conns = 1
		wall, ds, do, err := drain(func(shots []shot) (measured, error) {
			return timedPhase(ctx, e1, client, u.f.router.url, u.f.all(), "drain", 0, shots)
		}, sched.fixed, func() error {
			u.f.stop()
			n++
			f, err := startFleet(e, u.ck, client, fmt.Sprint(n))
			u.f = f
			return err
		})
		if err != nil {
			return report{}, err
		}
		shots, outs = append(shots, ds...), append(outs, do...)
		rep.metrics["setup_s"] = setupS
		rep.metrics["latency_p50_ms"] = fixed.stats.P50ms
		rep.metrics["latency_p95_ms"] = fixed.stats.P95ms
		rep.metrics["capacity_rps"] = notApplicable
		rep.metrics["cpu_ms_per_req"] = fixed.cpuSec * 1000 / float64(max(fixed.stats.Succeeded, 1))
		rep.metrics["peak_rss_mb"] = fixed.hwmMB
		rep.metrics["wall_s"] = wall.Seconds()
		detail("samples", map[string]int{"latency": len(fixed.outs), "drained": len(do)})
	}
	u.f.stop()

	rep.attempted = len(outs)
	for _, o := range outs {
		if !o.ok() {
			rep.failed += 1
		}
	}
	rep.failed += oracleFleet(u.ck, sched.ivs, shots, outs)
	rep.metrics["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	return rep, nil
}
