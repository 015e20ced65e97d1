package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync/atomic"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// coldLayers is the traced half of a serve_cold --trace 1 run. fixed is the
// untraced fixed phase just run against the real binary; its /metrics
// deltas give the batching and rejection counts. The same schedule then
// runs against the serve layer hosted in this process, with spans around
// the handler and the program's own admission and decoder spans read back
// by trace ID. It returns the traced requests, for the oracle.
func coldLayers(ctx context.Context, e env, sched *coldSchedule, ck checkpoint, fixed measured, rep *report) ([]shot, []outcome, error) {
	reqs := float64(max(fixed.stats.Succeeded, 1))
	batches := delta(fixed.before, fixed.after, "insightalign_batch_size_count")
	rep.metrics["serve.batch_size_mean"] = delta(fixed.before, fixed.after, "insightalign_batch_size_sum") / max(batches, 1)
	rep.metrics["serve.decoder_calls_per_req"] = batches / reqs
	rejections(fixed, rep)
	rep.metrics["core.beam_sessions_per_req"] = delta(fixed.before, fixed.after, "insightalign_beam_sessions_total") / reqs
	rep.metrics["loadgen.lag_p99_ms"] = fixed.stats.LagP99ms

	logger, closeLog, err := fileLogger(filepath.Join(e.dir, "traced-serve.log"))
	if err != nil {
		return nil, nil, err
	}
	defer closeLog()
	tracer := obs.NewTracer(len(sched.fixed) + 64)
	var decoderCalls atomic.Int64
	cfg := serve.DefaultConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = tracer
	cfg.Logger = logger
	cfg.BackendHook = func(context.Context) error { decoderCalls.Add(1); return nil }
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
	rec := &recorder{}
	h, err := startHost(rec.wrap("serve.handler", "", srv.Handler()))
	if err != nil {
		return nil, nil, err
	}
	client := newClient(e.conns)
	defer client.CloseIdleConnections()
	m0 := memStats()
	outs := openLoop(ctx, client, h.url+"/v1/recommend", sched.fixed, e.conns)
	m1 := memStats()
	h.close()
	rep.metrics["go.gc_pause_total_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	detail("phase", summarize("traced", coldRate, outs))

	// Allocations per request: the handler called directly, one request at
	// a time, with nothing else running in the process.
	bodies := sched.fixed[:min(200, len(sched.fixed))]
	handler := srv.Handler()
	_, allocs := perOp(len(bodies), func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/v1/recommend", bytes.NewReader(bodies[i].body))
		handler.ServeHTTP(httptest.NewRecorder(), req)
	})
	rep.metrics["serve.allocs_per_req"] = allocs
	shutdownServer(srv)

	// Per-request layer times.
	var loadgen, handlerSelf, batcherSelf, decode, queue, traced []float64
	names := map[string]string{"admission_queue": "serve.batcher", "decoder_session": "core.decode"}
	for _, o := range outs {
		if !o.ok() {
			continue
		}
		rec.addProgramSpans(tracer, o.traceID, "serve.handler", names)
		rec.add(span{ID: o.traceID, Name: "loadgen.wait", Start: o.dueAt, End: o.dueAt.Add(o.backlog)})
	}
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
		if adm == nil || dec == nil {
			continue
		}
		self := selfTimes(spans)
		queue = append(queue, msOf(dec.Start.Sub(adm.Start)))
		handlerSelf = append(handlerSelf, float64(self["serve.handler"].Microseconds()))
		batcherSelf = append(batcherSelf, msOf(self["serve.batcher"]))
		decode = append(decode, msOf(self["core.decode"]))
		loadgen = append(loadgen, msOf(self["loadgen.wait"]))
	}
	for _, o := range outs {
		if o.ok() {
			traced = append(traced, msOf(o.latency))
		}
	}
	sort.Float64s(queue)
	rep.metrics["serve.handler_self_us"] = median(handlerSelf)
	rep.metrics["serve.queue_wait_ms_p50"] = obs.Quantile(queue, 0.50)
	rep.metrics["serve.queue_wait_ms_p99"] = obs.Quantile(queue, 0.99)
	detail("traced_counts", map[string]any{"requests": len(traced), "spanned": len(queue), "decoder_calls": decoderCalls.Load()})
	reconcile("serve_cold", map[string]float64{
		"loadgen.wait":  mean(loadgen),
		"serve.handler": mean(handlerSelf) / 1000,
		"serve.batcher": mean(batcherSelf),
		"core.decode":   mean(decode),
	}, []string{"loadgen.wait", "serve.handler", "serve.batcher", "core.decode"},
		fixed.stats.P50ms, mean(latencies(fixed.outs)), mean(traced), "ms", rep)
	if err := rec.write(spansPath(e, "serve_cold")); err != nil {
		return nil, nil, err
	}

	wireLayers(sched.fixed, outs, rep)
	beamLayer(ck.model, sched.ivs[:min(300, len(sched.ivs))], rep)
	return sched.fixed, outs, nil
}

// rejections reports the admission rejections and breaker sheds of a phase.
func rejections(m measured, rep *report) {
	byReason := map[string]float64{}
	for _, r := range []string{"queue_full", "deadline", "shutdown"} {
		byReason[r] = delta(m.before, m.after, "insightalign_rejections_total", `reason="`+r+`"`)
	}
	byReason["breaker_shed"] = delta(m.before, m.after, "insightalign_serve_shed_total")
	total := 0.0
	for _, v := range byReason {
		total += v
	}
	detail("rejections", byReason)
	rep.metrics["serve.rejections"] = total
}

// wireLayers times the JSON wire types on the workload's own bodies: the
// request decode as the handler does it, and the response encode.
func wireLayers(shots []shot, outs []outcome, rep *report) {
	n := min(1000, len(shots))
	rep.metrics["serve.json_decode_us"], _ = perOp(n, func(i int) {
		var req serve.RecommendRequest
		dec := json.NewDecoder(bytes.NewReader(shots[i].body))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req) // the bodies are the benchmark's own valid JSON
	})
	var resps []serve.RecommendResponse
	for _, o := range outs {
		if r, err := decodeResponse(o.body); err == nil && o.ok() {
			resps = append(resps, r)
		}
		if len(resps) == n {
			break
		}
	}
	if len(resps) == 0 {
		return
	}
	rep.metrics["serve.json_encode_us"], _ = perOp(len(resps), func(i int) {
		_ = json.NewEncoder(io.Discard).Encode(resps[i]) // a decoded response always encodes
	})
}

// beamLayer times K=5 BeamSearch calls on the workload's insights.
func beamLayer(m *core.Model, ivs [][]float64, rep *report) {
	us, allocs := perOp(len(ivs), func(i int) { m.BeamSearch(ivs[i], beamK) })
	rep.metrics["core.beam_search_us"] = us
	rep.metrics["core.beam_allocs"] = allocs
}

// shutdownServer drains an in-process server.
func shutdownServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10e9)
	defer cancel()
	_ = s.Shutdown(ctx) // never started its own listener; this stops the batcher
}
