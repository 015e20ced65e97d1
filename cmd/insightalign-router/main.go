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
//	                          [-profile-ring=false] [-profile-dir DIR]
//	insightalign-router route -spawn 3 ...
//
// route with -spawn N boots N in-process replicas on loopback ports (each
// with its own fresh model) behind the router — the one-command fleet for
// demos and load tests. Every routing limit (admission, failover, health
// polling, breaker, hedging) runs at fleet.DefaultConfig.
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
	cfg := fleet.DefaultConfig()
	fs := flag.NewFlagSet("route", flag.ExitOnError)
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "router listen address")
	replicas := fs.String("replicas", "", "comma-separated replica base URLs")
	spawn := fs.Int("spawn", 0, "boot N in-process replicas on loopback instead of -replicas")
	profileRing := fs.Bool("profile-ring", true, "continuous profiling: periodic CPU+heap pprof captures into a bounded on-disk ring at /debug/profiles")
	profileDir := fs.String("profile-dir", filepath.Join(os.TempDir(), "insightalign-router-profiles"), "profile ring directory")
	fs.Parse(args)

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg.Logger = logger
	if *profileRing {
		prof, err := obs.StartProfiler(obs.ProfilerConfig{Dir: *profileDir})
		if err != nil {
			return fmt.Errorf("profile ring: %w", err)
		}
		defer prof.Close()
		cfg.Profiler = prof
		logger.Info("continuous profiling on", "dir", *profileDir)
	}

	if *spawn > 0 && *replicas != "" {
		return fmt.Errorf("-spawn and -replicas are mutually exclusive")
	}
	var lf *fleet.LocalFleet
	switch {
	case *spawn > 0:
		var err error
		lf, err = fleet.StartLocalFleet(*spawn, fleet.LocalOptions{Logger: logger})
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
