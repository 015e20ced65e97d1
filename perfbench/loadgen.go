package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"insightalign/internal/obs"
)

// shot is one scheduled request of an open-loop run.
type shot struct {
	due   time.Duration // offset from the run's start
	input int           // index into the workload's input table
	body  []byte
}

// outcome is what the generator observed for one shot.
type outcome struct {
	status  int
	body    []byte
	traceID string
	err     error
	// latency runs from the due time to the last response byte, less the
	// generator's own lateness (lag): a stall still charges every request
	// that waited behind it for a connection, but the generator's timer
	// wake-up, which moved with the load of other tenants of the machine,
	// is not charged to the system.
	latency time.Duration
	// lag is how late the generator itself sent: from the later of the due
	// time and the moment a connection was free, to the send.
	lag time.Duration
	// backlog is how long the shot waited for a free connection after it
	// was due: the system's queue, seen from the client.
	backlog time.Duration
	dueAt   time.Time
	sentAt  time.Time
}

func (o outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// newClient returns an HTTP client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        4 * conns,
			DisableCompression:  true,
		},
	}
}

// poisson lays out n arrivals at rate per second with exponential gaps,
// starting at offset. The same rng state gives the same schedule.
func poisson(rng *rand.Rand, n int, rate float64, offset time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	t := float64(offset)
	for i := range out {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		out[i] = time.Duration(t)
	}
	return out
}

// openLoop sends every shot to url at its due time over conns workers,
// each holding one keep-alive connection. A worker takes the next shot in
// order, sleeps until it is due, and sends; a shot due while every worker
// is busy waits for one (backlog) and is still timed from its due time.
func openLoop(ctx context.Context, client *http.Client, url string, shots []shot, conns int) []outcome {
	out := make([]outcome, len(shots))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) || ctx.Err() != nil {
					return
				}
				free := time.Since(start)
				due := shots[i].due
				if wait := due - free; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				o := send(ctx, client, url, shots[i].body)
				if free > due {
					o.backlog = free - due
					o.lag = sent - free
				} else {
					o.lag = sent - due
				}
				o.latency = time.Since(start) - due - o.lag
				o.dueAt, o.sentAt = start.Add(due), start.Add(sent)
				out[i] = o
			}
		}()
	}
	wg.Wait()
	return out
}

// send posts one JSON body and reads the whole response.
func send(ctx context.Context, client *http.Client, url string, body []byte) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return outcome{status: resp.StatusCode, body: b, err: err, traceID: resp.Header.Get("X-Trace-Id")}
}

// phaseStats summarizes one phase of a run.
type phaseStats struct {
	Name      string  `json:"phase"`
	Rate      float64 `json:"offered_rps"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
	P95ms     float64 `json:"p95_ms"`
	LagP99ms  float64 `json:"lag_p99_ms"`
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tailQ is the tail quantile reported for n samples: 0.99, or, when fewer
// than 1,000 samples leave under ten beyond it, the highest quantile that
// keeps ten samples beyond it.
func tailQ(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return max(0.5, 1-10/float64(n))
}

// tail returns the tailQ quantile of sorted latencies.
func tail(sorted []float64) float64 { return obs.Quantile(sorted, tailQ(len(sorted))) }

// summarize computes a phase's counts and percentiles. Failed requests
// count as missing any latency limit, so they enter the latency sample at
// +Inf.
func summarize(name string, rate float64, outs []outcome) phaseStats {
	ps := phaseStats{Name: name, Rate: rate, Sent: len(outs)}
	lat := make([]float64, 0, len(outs))
	lag := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.ok() {
			ps.Succeeded++
			lat = append(lat, msOf(o.latency))
		} else {
			ps.Failed++
			lat = append(lat, inf)
		}
		lag = append(lag, msOf(o.lag))
	}
	sort.Float64s(lat)
	sort.Float64s(lag)
	ps.P50ms = obs.Quantile(lat, 0.50)
	ps.P95ms = obs.Quantile(lat, 0.95)
	ps.P99ms = tail(lat)
	ps.LagP99ms = obs.Quantile(lag, 0.99)
	return ps
}
