package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"insightalign/internal/obs"
)

// span is one timed call into a layer, tied to a request by id.
type span struct {
	ID     string    `json:"id"`
	Name   string    `json:"name"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// byID groups the spans per request.
func (r *recorder) byID() map[string][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]span{}
	for _, s := range r.spans {
		out[s.ID] = append(out[s.ID], s)
	}
	return out
}

// write stores every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// wrap times every call of h.ServeHTTP as a span named name. The request
// id is the trace ID the program propagates in X-Trace-Id: read from the
// request when a front end set it, else from the response.
func (r *recorder) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		id := req.Header.Get("X-Trace-Id")
		if id == "" {
			id = w.Header().Get("X-Trace-Id")
		}
		r.add(span{ID: id, Name: name, Parent: parent, Start: start, End: end})
	})
}

// addProgramSpans copies the named spans of the program's own trace for id
// into the recorder, under parent.
func (r *recorder) addProgramSpans(tr *obs.Tracer, id, parent string, names map[string]string) {
	for _, t := range tr.LookupAll(id) {
		for _, s := range t.Spans {
			if n, ok := names[s.Name]; ok {
				r.add(span{ID: id, Name: n, Parent: parent, Start: s.Start, End: s.Start.Add(time.Duration(s.DurUS) * time.Microsecond)})
			}
		}
	}
}

// selfTimes returns each span name's self time for one request: its
// duration minus the part of its interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range spans {
		var kids [][2]time.Time
		for _, c := range spans {
			if c.Parent == s.Name {
				a, b := c.Start, c.End
				if a.Before(s.Start) {
					a = s.Start
				}
				if b.After(s.End) {
					b = s.End
				}
				if b.After(a) {
					kids = append(kids, [2]time.Time{a, b})
				}
			}
		}
		out[s.Name] += s.dur() - covered(kids)
	}
	return out
}

// covered is the length of the union of intervals.
func covered(iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case x[0].After(cur[1]):
			total += cur[1].Sub(cur[0])
			cur = x
		case x[1].After(cur[1]):
			cur[1] = x[1]
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// host serves h on a loopback port inside this process.
type host struct {
	srv *http.Server
	url string
	wg  sync.WaitGroup
}

func startHost(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &host{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String()}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		_ = hs.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return hs, nil
}

func (h *host) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // best effort; the listener is closed either way
	h.wg.Wait()
}

// fileLogger writes request logs to path, as the binaries write theirs to
// stderr, so the traced run does the same logging work.
func fileLogger(path string) (*slog.Logger, func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return slog.New(slog.NewJSONHandler(f, nil)), func() { f.Close() }, nil
}

// memStats reads the runtime's allocation and GC counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// perOp times fn over n calls and returns the median microseconds per call
// and the mean allocations per call.
func perOp(n int, fn func(i int)) (us float64, allocs float64) {
	times := make([]float64, n)
	m0 := memStats()
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		times[i] = float64(time.Since(t)) / float64(time.Microsecond)
	}
	m1 := memStats()
	return median(times), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// reconcile prints the per-workload line answering where end-to-end time
// goes: the layer self-times (means, which add up), their sum, the
// untraced end-to-end median and mean, the remainder no layer span covers,
// and the tracing overhead.
func reconcile(workload string, layers map[string]float64, order []string, untracedMedian, untracedMean, tracedMean float64, unit string, rep *report) {
	sum := 0.0
	for _, n := range order {
		sum += layers[n]
	}
	line := map[string]any{
		"workload":                  workload,
		"unit":                      unit,
		"layer_self_means":          layers,
		"layer_self_sum":            sum,
		"untraced_e2e_median":       untracedMedian,
		"untraced_e2e_mean":         untracedMean,
		"unexplained":               untracedMean - sum,
		"traced_minus_untraced":     tracedMean - untracedMean,
		"unexplained_share_of_mean": (untracedMean - sum) / untracedMean,
	}
	detail("reconcile", line)
	scale := 1.0
	if unit == "s" {
		scale = 1000
	}
	rep.metrics["reconcile.layer_sum_ms"] = sum * scale
	rep.metrics["reconcile.unexplained_ms"] = (untracedMean - sum) * scale
	rep.metrics["reconcile.overhead_ms"] = (tracedMean - untracedMean) * scale
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func spansPath(e env, workload string) string {
	return fmt.Sprintf("%s/%s-seed%d.jsonl", e.spans, workload, e.seed)
}
