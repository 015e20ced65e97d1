package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"
)

// Fleet observability roll-up: the router scrapes each replica's /metrics
// page and serves two merged views. /debug/fleet is the machine view —
// every replica sample re-emitted with a replica="..." label injected, so
// one scrape of the router covers the whole fleet without a separate
// aggregation tier. /debug/dash is the operator view — an aligned text
// dashboard of per-replica health, breaker state, the fleet's model
// version mix, and the router's burn-rate SLO verdicts.

// replicaScrape is one replica's /metrics fetch.
type replicaScrape struct {
	id   string
	body string
	err  error
}

// scrapeReplicas fetches every configured replica's /metrics page
// concurrently, bounded by scrapeTimeout each, in stable id order.
func (rt *Router) scrapeReplicas(ctx context.Context) []replicaScrape {
	out := make([]replicaScrape, len(rt.ids))
	var wg sync.WaitGroup
	for i, id := range rt.ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
			defer cancel()
			out[i] = replicaScrape{id: id}
			req, err := http.NewRequestWithContext(sctx, http.MethodGet, id+"/metrics", nil)
			if err != nil {
				out[i].err = err
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				out[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				out[i].err = fmt.Errorf("scrape status %d", resp.StatusCode)
				return
			}
			b, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
			if err != nil {
				out[i].err = err
				return
			}
			out[i].body = string(b)
		}(i, id)
	}
	wg.Wait()
	return out
}

// addReplicaLabel rewrites one exposition sample line to carry a leading
// replica label: `name{a="b"} 1` -> `name{replica="id",a="b"} 1` and
// `name 2` -> `name{replica="id"} 2`. Comment and blank lines pass
// through unchanged; exemplar suffixes are untouched because the
// injection point precedes them.
func addReplicaLabel(line, id string) string {
	if line == "" || strings.HasPrefix(line, "#") {
		return line
	}
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`).Replace(id)
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		// A bare metric name (no labels, no value yet — the roll-up's own
		// scrape-status family builds lines this way).
		return line + `{replica="` + esc + `"}`
	}
	if line[i] == '{' {
		return line[:i] + `{replica="` + esc + `",` + line[i+1:]
	}
	return line[:i] + `{replica="` + esc + `"}` + line[i:]
}

// handleFleetMetrics serves the merged fleet exposition: every replica's
// samples with replica labels injected, HELP/TYPE headers deduplicated
// across replicas, and a per-replica scrape status family appended so a
// missing replica is visible in the page itself rather than silently
// absent.
func (rt *Router) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	scrapes := rt.scrapeReplicas(r.Context())
	var b strings.Builder
	seenHeader := map[string]bool{}
	for _, sc := range scrapes {
		if sc.err != nil {
			continue
		}
		for _, line := range strings.Split(sc.body, "\n") {
			if strings.HasPrefix(line, "#") {
				if seenHeader[line] {
					continue
				}
				seenHeader[line] = true
				b.WriteString(line)
				b.WriteByte('\n')
				continue
			}
			if line == "" {
				continue
			}
			b.WriteString(addReplicaLabel(line, sc.id))
			b.WriteByte('\n')
		}
	}
	b.WriteString("# HELP insightalign_fleet_scrape_up Whether the replica /metrics scrape succeeded (1 ok, 0 failed).\n")
	b.WriteString("# TYPE insightalign_fleet_scrape_up gauge\n")
	for _, sc := range scrapes {
		up := 1
		if sc.err != nil {
			up = 0
		}
		fmt.Fprintf(&b, "%s %d\n", addReplicaLabel("insightalign_fleet_scrape_up", sc.id), up)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}

// modelInfoRe pulls the served version out of a replica's
// insightalign_model_info sample.
var modelInfoRe = regexp.MustCompile(`insightalign_model_info\{[^}]*version="([^"]*)"[^}]*\} 1`)

// sampleValueRe matches `<name>{...} <value>` / `<name> <value>` lines
// for the handful of samples the dashboard surfaces.
func sampleValue(page, name string) (float64, bool) {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9eE.+-]+|NaN)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		return 0, false
	}
	var v float64
	if _, err := fmt.Sscanf(m[1], "%g", &v); err != nil {
		return 0, false
	}
	return v, true
}

// handleDash renders the operator dashboard: one row per replica (health,
// ring membership, breaker, occupancy, served version, queue depth), the
// fleet's model version mix, and the router's SLO report.
func (rt *Router) handleDash(w http.ResponseWriter, r *http.Request) {
	scrapes := rt.scrapeReplicas(r.Context())
	members := map[string]bool{}
	for _, id := range rt.ring.Members() {
		members[id] = true
	}

	var b strings.Builder
	fmt.Fprintf(&b, "insightalign fleet dashboard @ %s\n", time.Now().UTC().Format(time.RFC3339))
	fmt.Fprintf(&b, "replicas: %d configured, %d in ring; ring rebuilds: %d\n\n",
		len(rt.ids), len(members), rt.ring.Rebuilds())

	fmt.Fprintf(&b, "%-28s %-5s %-5s %-10s %9s %7s %-16s %7s\n",
		"REPLICA", "UP", "RING", "BREAKER", "INFLIGHT", "QUEUED", "VERSION", "QDEPTH")
	versionMix := map[string]int{}
	for i, id := range rt.ids {
		rep := rt.reps[id]
		version, qdepth := "-", "-"
		if scrapes[i].err == nil {
			if m := modelInfoRe.FindStringSubmatch(scrapes[i].body); m != nil {
				version = m[1]
				versionMix[version]++
			}
			if v, ok := sampleValue(scrapes[i].body, "insightalign_queue_depth"); ok {
				qdepth = fmt.Sprintf("%d", int(v))
			}
		} else {
			version = "scrape-failed"
		}
		up := "down"
		if rep.healthy.Load() {
			up = "up"
		}
		ring := "out"
		if members[id] {
			ring = "in"
		}
		fmt.Fprintf(&b, "%-28s %-5s %-5s %-10s %9d %7d %-16s %7s\n",
			id, up, ring, rep.BreakerState().String(),
			rep.gate.Inflight(), rep.gate.Queued(), version, qdepth)
	}

	b.WriteString("\nversion mix:\n")
	if len(versionMix) == 0 {
		b.WriteString("  (no replica reported a model version)\n")
	} else {
		versions := make([]string, 0, len(versionMix))
		for v := range versionMix {
			versions = append(versions, v)
		}
		sort.Strings(versions)
		for _, v := range versions {
			fmt.Fprintf(&b, "  %-20s x%d\n", v, versionMix[v])
		}
	}

	b.WriteString("\n")
	b.WriteString(rt.slo.Report().Text())

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, b.String())
}
