// Command insightalign-router runs the fleet tier: a consistent-hash
// request router that fans /v1/recommend traffic over N replica backends
// with cache-affinity routing, bounded-load fallback, per-replica health
// polling and circuit breaking, hedged requests, and bounded admission
// with load shedding. (This is the serving fleet router — distinct from
// internal/router, the EDA global router that routes wires, not
// requests.) The router's own observability surface is mounted on its
// listener: /metrics, /debug/traces (merged across the router→replica
// hop), /debug/pprof/, /debug/slo (per-replica and fleet-wide burn-rate
// verdicts), /debug/fleet (every replica's /metrics merged under
// replica="..." labels), /debug/dash (the operator text dashboard:
// replica health, breaker state, version mix, SLO table), /debug/profiles
// (the continuous-profiling ring, on by default), and an aggregated
// fleet /healthz.
//
// Usage:
//
//	insightalign-router route -replicas http://h1:8080,http://h2:8080 [-addr :8090]
//	                          [-max-inflight 32] [-queue 64] [-queue-wait 100ms]
//	                          [-hedge-quantile 0.95] [-hedge-min-delay 5ms] [-no-hedge]
//	                          [-health-interval 500ms] [-eject-after 3]
//	                          [-profile-ring=false] [-profile-dir DIR]
//	insightalign-router route -spawn 3 [-seed 1] ...
//
// route with -spawn N boots N in-process replicas on loopback ports (each
// with its own fresh model) behind the router — the one-command fleet for
// demos and load tests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"insightalign/internal/fleet"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

func main() {
	args := os.Args[1:]
	// `route` is the only mode; the word is optional.
	if len(args) > 0 && args[0] == "route" {
		args = args[1:]
	}
	if err := cmdRoute(args); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func cmdRoute(args []string) error {
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "router listen address")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs")
	spawn := fs.Int("spawn", 0, "boot N in-process replicas on loopback instead of -replicas")
	seed := fs.Int64("seed", 1, "model seed for -spawn replicas")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
	loadFactor := fs.Float64("load-factor", 1.25, "bounded-load consistent-hashing factor c")
	maxInflight := fs.Int("max-inflight", 32, "concurrent forwards per replica")
	queue := fs.Int("queue", 64, "admission waiters per replica beyond max-inflight")
	queueWait := fs.Duration("queue-wait", 100*time.Millisecond, "longest wait for an admission slot before shedding")
	timeout := fs.Duration("timeout", 15*time.Second, "end-to-end routed request deadline")
	attempts := fs.Int("attempts", 3, "max distinct replicas tried per request (failover budget)")
	noHedge := fs.Bool("no-hedge", false, "disable hedged requests")
	hedgeQ := fs.Float64("hedge-quantile", 0.95, "latency percentile that arms the hedge timer")
	hedgeMin := fs.Duration("hedge-min-delay", 5*time.Millisecond, "floor on the hedge trigger")
	hedgeMax := fs.Int("hedge-max", 8, "fleet-wide cap on in-flight hedges")
	healthEvery := fs.Duration("health-interval", 500*time.Millisecond, "/healthz polling period")
	ejectAfter := fs.Int("eject-after", 3, "consecutive failed polls that eject a replica from the ring")
	brkWindow := fs.Int("breaker-window", 16, "sliding window of forward outcomes per replica")
	brkMin := fs.Int("breaker-min-samples", 4, "outcomes required before a replica breaker can trip")
	brkRatio := fs.Float64("breaker-threshold", 0.5, "failure ratio that opens a replica breaker")
	brkCooldown := fs.Duration("breaker-cooldown", 2*time.Second, "open duration before half-open probing")
	brkProbes := fs.Int("breaker-probes", 2, "probe successes that close a replica breaker")
	profileRing := fs.Bool("profile-ring", true, "continuous profiling: periodic CPU+heap pprof captures into a bounded on-disk ring at /debug/profiles")
	profileDir := fs.String("profile-dir", "", "profile ring directory (default: <tmp>/insightalign-router-profiles)")
	profileEvery := fs.Duration("profile-interval", 60*time.Second, "profile capture period")
	profileKeep := fs.Int("profile-keep", 8, "newest profiles kept per kind in the ring")
	fs.Parse(args)

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := fleet.DefaultConfig()
	cfg.Addr = *addr
	cfg.VNodesPerReplica = *vnodes
	cfg.LoadFactor = *loadFactor
	cfg.MaxInflight = *maxInflight
	cfg.QueueDepth = *queue
	cfg.QueueWait = *queueWait
	cfg.RequestTimeout = *timeout
	cfg.MaxAttempts = *attempts
	cfg.DisableHedging = *noHedge
	cfg.HedgeQuantile = *hedgeQ
	cfg.HedgeMinDelay = *hedgeMin
	cfg.HedgeMaxConcurrent = *hedgeMax
	cfg.HealthInterval = *healthEvery
	cfg.EjectAfter = *ejectAfter
	cfg.Breaker = serve.BreakerConfig{
		Window:         *brkWindow,
		MinSamples:     *brkMin,
		FailureRatio:   *brkRatio,
		Cooldown:       *brkCooldown,
		HalfOpenProbes: *brkProbes,
	}
	cfg.Logger = logger
	if *profileRing {
		dir := *profileDir
		if dir == "" {
			dir = filepath.Join(os.TempDir(), "insightalign-router-profiles")
		}
		prof, err := obs.StartProfiler(obs.ProfilerConfig{
			Dir: dir, Interval: *profileEvery, Keep: *profileKeep,
		})
		if err != nil {
			return fmt.Errorf("profile ring: %w", err)
		}
		defer prof.Close()
		cfg.Profiler = prof
		logger.Info("continuous profiling on", "dir", dir,
			"interval", profileEvery.String(), "keep", *profileKeep)
	}

	if *spawn > 0 && *replicas != "" {
		return fmt.Errorf("-spawn and -replicas are mutually exclusive")
	}
	var lf *fleet.LocalFleet
	switch {
	case *spawn > 0:
		var err error
		lf, err = fleet.StartLocalFleet(*spawn, fleet.LocalOptions{Seed: *seed, Logger: logger})
		if err != nil {
			return err
		}
		defer lf.Close()
		cfg.Replicas = lf.URLs()
		logger.Info("spawned local replicas", "urls", cfg.Replicas)
	case *replicas != "":
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				cfg.Replicas = append(cfg.Replicas, u)
			}
		}
	default:
		return fmt.Errorf("either -replicas or -spawn is required")
	}

	rt, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc, err := rt.Start()
	if err != nil {
		return err
	}
	logger.Info("fleet router up", "addr", rt.Addr(), "replicas", len(cfg.Replicas))
	select {
	case <-ctx.Done():
		logger.Info("signal received, draining")
	case err := <-errc:
		if err != nil {
			return err
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return rt.Shutdown(shCtx)
}
