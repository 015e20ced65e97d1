package fleet

import (
	"context"
	"io"
	"net/http"
	"sync"
	"time"
)

// Replica health model. Two independent signals gate traffic:
//
//   - /healthz polling answers "is the process up and serving a model" —
//     a dead or modelless replica flips unhealthy after ONE failed poll
//     (fast skip for new picks) and is ejected from the ring after
//     EjectAfter consecutive failures (rebalancing its keys to the
//     survivors — the affinity move the ring-rebuild metric counts). One
//     successful poll re-adds it.
//
//   - observed forward outcomes feed the per-replica Breaker,
//     catching the live-but-failing replica the poller calls healthy: a
//     wedged decoder answers /healthz fine while 502ing every request.
//
// The poller also refreshes the per-replica inflight/queued gauges so a
// scrape between requests still sees current occupancy.

// healthLoop polls every replica until Shutdown.
func (rt *Router) healthLoop() {
	defer rt.wg.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.stopc:
			return
		case <-t.C:
			rt.PollHealthNow()
		}
	}
}

// PollHealthNow runs one parallel health-poll round and applies ring
// ejections/re-adds. Exposed so tests can force a verdict instead of
// sleeping through poll intervals.
func (rt *Router) PollHealthNow() {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range rt.ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			rt.pollReplica(ctx, rt.reps[id])
		}(id)
	}
	wg.Wait()

	// Ring membership: keep replicas that are not past the ejection
	// threshold. The ring stays consistent-hash stable for survivors; only
	// the ejected replica's keys move.
	members := make([]string, 0, len(rt.ids))
	for _, id := range rt.ids {
		if rt.reps[id].failPolls.Load() < int64(rt.cfg.EjectAfter) {
			members = append(members, id)
		}
	}
	if rt.ring.Set(members) {
		rt.met.ObserveRebuild()
		rt.log.Warn("consistent-hash ring rebalanced", "members", len(members), "configured", len(rt.ids))
	}
}

// pollReplica probes one replica's /healthz and updates its liveness,
// transition logs, and gauges.
func (rt *Router) pollReplica(ctx context.Context, rep *Replica) {
	up := false
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.id+"/healthz", nil)
	if err == nil {
		resp, err := rt.client.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			// 503 means "up but cannot serve" (no model loaded): for
			// routing purposes that is down.
			up = resp.StatusCode == http.StatusOK
		}
	}
	if up {
		rep.failPolls.Store(0)
		if !rep.healthy.Swap(true) {
			rt.log.Info("replica recovered", "replica", rep.id)
		}
	} else {
		rep.failPolls.Add(1)
		if rep.healthy.Swap(false) {
			rt.log.Warn("replica unhealthy", "replica", rep.id)
		}
	}
	rt.met.SetReplicaUp(rep.id, up)
	rt.met.SetInflight(rep.id, rep.gate.Inflight(), rep.gate.Queued())
}
