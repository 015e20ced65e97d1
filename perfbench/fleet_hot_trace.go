package main

import (
	"context"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/fleet"
	"insightalign/internal/obs"
	"insightalign/internal/recipe"
	"insightalign/internal/retrieve"
	"insightalign/internal/serve"
)

// fleetLayers is the traced half of a fleet_hot --trace 1 run. fixed is
// the untraced fixed phase just run against the real processes: its
// /metrics deltas give cache, hedge, batching and store counts. Then the
// router hop is measured against the same processes at a low rate, the
// store's calls are timed on a replay of the run's decodes, and the fixed
// schedule runs again against a router and replicas hosted in this
// process. It returns the extra requests it sent, for the oracle.
func fleetLayers(ctx context.Context, e env, sched *fleetSchedule, ck checkpoint, f cluster, fixed measured, rep *report) ([]shot, []outcome, error) {
	reqs := float64(max(fixed.stats.Succeeded, 1))
	hits := delta(fixed.before, fixed.after, "insightalign_serve_cache_requests_total", `result="hit"`)
	misses := delta(fixed.before, fixed.after, "insightalign_serve_cache_requests_total", `result="miss"`)
	won := delta(fixed.before, fixed.after, "insightalign_fleet_hedges_total", `result="won"`)
	lost := delta(fixed.before, fixed.after, "insightalign_fleet_hedges_total", `result="lost"`)
	batches := delta(fixed.before, fixed.after, "insightalign_batch_size_count")
	rep.metrics["retrieve.cache_hit_ratio"] = hits / max(hits+misses, 1)
	rep.metrics["retrieve.cache_lookups"] = hits + misses
	rep.metrics["fleet.hedges_fired"] = won + lost
	rep.metrics["fleet.hedge_win_ratio"] = won / max(won+lost, 1)
	rep.metrics["serve.batch_size_mean"] = delta(fixed.before, fixed.after, "insightalign_batch_size_sum") / max(batches, 1)
	rep.metrics["serve.decoder_calls_per_req"] = batches / reqs
	rep.metrics["core.beam_sessions_per_req"] = delta(fixed.before, fixed.after, "insightalign_beam_sessions_total") / reqs
	rep.metrics["loadgen.lag_p99_ms"] = fixed.stats.LagP99ms
	designs := 0.0
	for _, s := range fixed.after {
		designs += s.sum("insightalign_retrieve_designs")
	}
	rep.metrics["retrieve.store_designs_end"] = designs
	rejections(fixed, rep)
	adds := delta(fixed.before, fixed.after, "insightalign_retrieve_adds_total")
	detail("fleet_counts", map[string]float64{"cache_hits": hits, "cache_misses": misses, "hedges_won": won, "hedges_lost": lost, "retrieve_adds": adds, "store_designs": designs})

	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	hopShots, hopOuts := hop(ctx, client, f, sched, rep)
	storeLayer(sched, fixed, ck.version, rep)

	tShots, tOuts, err := fleetTraced(ctx, e, sched, ck, fixed, rep)
	if err != nil {
		return nil, nil, err
	}
	return append(hopShots, tShots...), append(hopOuts, tOuts...), nil
}

// hop sends hot requests one at a time, first through the router and then
// straight to each replica. The replica that answers from its cache is the
// one the router uses; fleet.hop_ms is the routed median minus the direct
// median over cached answers.
func hop(ctx context.Context, client *http.Client, f cluster, sched *fleetSchedule, rep *report) ([]shot, []outcome) {
	var routed, direct []float64
	var shots []shot
	var outs []outcome
	for input := 0; input < min(100, fleetHotPool); input++ {
		body := requestBody(sched.ivs[input])
		urls := []string{f.router.url, f.router.url}
		for _, r := range f.replicas {
			urls = append(urls, r.url)
		}
		for j, u := range urls {
			t := time.Now()
			o := send(ctx, client, u+"/v1/recommend", body)
			o.latency = time.Since(t)
			shots, outs = append(shots, shot{input: input, body: body}), append(outs, o)
			r, err := decodeResponse(o.body)
			if !o.ok() || err != nil || !r.Cached || j == 0 {
				continue // the first routed send may fill the cache
			}
			if j == 1 {
				routed = append(routed, msOf(o.latency))
			} else {
				direct = append(direct, msOf(o.latency))
			}
		}
	}
	rep.metrics["fleet.hop_ms"] = median(routed) - median(direct)
	detail("hop", map[string]any{"routed_cached": len(routed), "direct_cached": len(direct), "routed_p50_ms": median(routed), "direct_p50_ms": median(direct)})
	return shots, outs
}

// storeLayer replays the run's decodes, in arrival order, into a fresh
// store: each decoded top-1 set is added as serving does, and BestSets is
// timed at the start, middle and end store sizes.
func storeLayer(sched *fleetSchedule, fixed measured, version string, rep *report) {
	type add struct {
		iv  []float64
		set recipe.Set
		lp  float64
	}
	order := make([]int, len(fixed.outs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fixed.outs[order[a]].sentAt.Before(fixed.outs[order[b]].sentAt) })
	var adds []add
	for _, i := range order {
		o := fixed.outs[i]
		r, err := decodeResponse(o.body)
		if !o.ok() || err != nil || r.Cached || len(r.Candidates) == 0 {
			continue
		}
		set, err := recipe.ParseSet(r.Candidates[0].Recipes)
		if err != nil {
			continue
		}
		adds = append(adds, add{sched.ivs[fixed.shots[i].input], set, r.Candidates[0].LogProb})
	}
	if len(adds) == 0 {
		return
	}
	st := retrieve.NewStore()
	queries := sched.ivs[:min(50, len(sched.ivs))]
	bestSets := func() float64 {
		us, _ := perOp(len(queries), func(i int) { st.BestSets(queries[i], 4, 0) })
		return us
	}
	marks := map[int]string{len(adds) / 10: "retrieve.best_sets_us_start", len(adds) / 2: "retrieve.best_sets_us_mid", len(adds): "retrieve.best_sets_us_end"}
	sizes := map[string]int{}
	var addUS []float64
	for i := 0; i <= len(adds); i++ {
		if name, ok := marks[i]; ok {
			rep.metrics[name] = bestSets()
			sizes[name] = st.Designs()
		}
		if i == len(adds) {
			break
		}
		t := time.Now()
		st.Add(adds[i].iv, adds[i].set, adds[i].lp, version)
		addUS = append(addUS, float64(time.Since(t))/float64(time.Microsecond))
	}
	rep.metrics["retrieve.add_us"] = median(addUS)
	detail("store_replay", map[string]any{"adds": len(adds), "designs_at": sizes})
}

// fleetTraced hosts two -cache replicas and the router in this process and
// runs the fixed schedule through them with spans at each hop.
func fleetTraced(ctx context.Context, e env, sched *fleetSchedule, ck checkpoint, fixed measured, rep *report) ([]shot, []outcome, error) {
	logger, closeLog, err := fileLogger(filepath.Join(e.dir, "traced-fleet.log"))
	if err != nil {
		return nil, nil, err
	}
	defer closeLog()
	rec := &recorder{}
	tracer := obs.NewTracer(2*len(sched.fixed) + 64)
	var hosts []*host
	var servers []*serve.Server
	var caches []*retrieve.Cache
	var regs []*obs.Registry
	defer func() {
		for _, h := range hosts {
			h.close()
		}
		for _, s := range servers {
			shutdownServer(s)
		}
	}()
	var urls []string
	for i := 0; i < fleetReplicas; i++ {
		cfg := serve.DefaultConfig()
		cfg.Cache = retrieve.NewCache(fleetCacheSize)
		cfg.Store = retrieve.NewStore()
		cfg.Metrics = obs.NewRegistry()
		caches, regs = append(caches, cfg.Cache), append(regs, cfg.Metrics)
		cfg.Tracer = tracer
		cfg.Logger = logger
		reg, err := serve.NewRegistry(core.DefaultConfig())
		if err != nil {
			return nil, nil, err
		}
		if _, err := reg.LoadFile(ck.path); err != nil {
			return nil, nil, err
		}
		srv, err := serve.New(cfg, reg)
		if err != nil {
			return nil, nil, err
		}
		servers = append(servers, srv)
		h, err := startHost(rec.wrap("serve.replica", "fleet.router", srv.Handler()))
		if err != nil {
			return nil, nil, err
		}
		hosts = append(hosts, h)
		urls = append(urls, h.url)
	}
	rcfg := fleet.DefaultConfig()
	rcfg.Replicas = urls
	rcfg.Metrics = obs.NewRegistry()
	rcfg.Tracer = obs.NewTracer(len(sched.fixed) + 64)
	rcfg.Logger = logger
	rt, err := fleet.New(rcfg)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(sctx) // stops the health loop; it never listened itself
	}()
	rh, err := startHost(rec.wrap("fleet.router", "", rt.Handler()))
	if err != nil {
		return nil, nil, err
	}
	hosts = append([]*host{rh}, hosts...)

	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	m0 := memStats()
	outs := openLoop(ctx, client, rh.url+"/v1/recommend", sched.fixed, e.conns)
	m1 := memStats()
	rep.metrics["go.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	detail("phase", summarize("traced", fleetRate, outs))
	cacheCounts(caches, regs)

	names := map[string]string{"admission_queue": "serve.batcher", "decoder_session": "core.decode"}
	var traced []float64
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		traced = append(traced, msOf(o.latency))
		rec.addProgramSpans(tracer, o.traceID, "serve.replica", names)
		rec.add(span{ID: o.traceID, Name: "loadgen.wait", Start: o.dueAt, End: o.dueAt.Add(o.backlog)})
	}
	parts := map[string][]float64{}
	var queue, replicaSelf []float64
	for _, spans := range rec.byID() {
		var adm, dec *span
		for j := range spans {
			switch spans[j].Name {
			case "serve.batcher":
				adm = &spans[j]
			case "core.decode":
				dec = &spans[j]
				dec.Parent = "serve.batcher"
			}
		}
		self := selfTimes(spans)
		if _, ok := self["fleet.router"]; !ok {
			continue
		}
		for _, n := range []string{"loadgen.wait", "fleet.router", "serve.replica", "serve.batcher", "core.decode"} {
			parts[n] = append(parts[n], msOf(self[n]))
		}
		replicaSelf = append(replicaSelf, float64(self["serve.replica"].Microseconds()))
		if adm != nil && dec != nil {
			queue = append(queue, msOf(dec.Start.Sub(adm.Start)))
		}
	}
	sort.Float64s(queue)
	rep.metrics["serve.handler_self_us"] = median(replicaSelf)
	rep.metrics["serve.queue_wait_ms_p50"] = obs.Quantile(queue, 0.50)
	rep.metrics["serve.queue_wait_ms_p99"] = obs.Quantile(queue, 0.99)
	layers := map[string]float64{}
	order := []string{"loadgen.wait", "fleet.router", "serve.replica", "serve.batcher", "core.decode"}
	for _, n := range order {
		layers[n] = mean(parts[n])
	}
	detail("traced_counts", map[string]int{"requests": len(traced), "spanned": len(replicaSelf), "decoded": len(queue)})
	reconcile("fleet_hot", layers, order, fixed.stats.P50ms, mean(latencies(fixed.outs)), mean(traced), "ms", rep)
	if err := rec.write(spansPath(e, "fleet_hot")); err != nil {
		return nil, nil, err
	}
	wireLayers(sched.fixed, outs, rep)
	beamLayer(ck.model, sched.ivs[:min(300, len(sched.ivs))], rep)
	return sched.fixed, outs, nil
}

// cacheCounts prints the hosted replicas' cache counts at the end of the
// traced phase. Every miss puts one entry, so misses beyond the entries
// left are evictions (a hedged duplicate decode of one key would count
// once too often).
func cacheCounts(caches []*retrieve.Cache, regs []*obs.Registry) {
	var hits, misses, entries float64
	for i, c := range caches {
		entries += float64(c.Len())
		s, err := parseExposition(strings.NewReader(regs[i].Exposition()))
		if err != nil {
			continue
		}
		hits += s.sum("insightalign_serve_cache_requests_total", `result="hit"`)
		misses += s.sum("insightalign_serve_cache_requests_total", `result="miss"`)
	}
	detail("traced_cache", map[string]float64{"hits": hits, "misses": misses, "hit_ratio": hits / max(hits+misses, 1), "entries_end": entries, "evictions": misses - entries})
}
