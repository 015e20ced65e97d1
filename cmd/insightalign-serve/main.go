// Command insightalign-serve runs the recommendation serving subsystem: an
// HTTP inference server over a trained InsightAlign model, with a bounded
// admission gate, a hot-swappable model registry and graceful shutdown.
// The full observability surface is mounted on the serving listener itself:
// Prometheus metrics at /metrics (with trace-ID exemplars and per-version
// latency/QoR attribution), span traces at /debug/traces (every
// /v1/recommend response carries a trace_id resolvable there), burn-rate
// SLO verdicts at /debug/slo, a continuous-profiling ring at
// /debug/profiles (on by default, see -profile-ring), and pprof at
// /debug/pprof/. Its loadgen mode drives traffic at a running server.
//
// Usage:
//
//	insightalign-serve serve   -model model.bin [-addr :8080] [-watch ckpts/ -poll 2s]
//	                           [-cache] [-cache-size 4096] [-retrieve-journal run.jsonl]
//	                           [-profile-ring=false] [-profile-dir DIR]
//	                           [-slo-journal slo.jsonl]
//	                           [-candidate-dir DIR -lifecycle-journal FILE ...]
//	insightalign-serve loadgen -url http://127.0.0.1:8080 [-clients 8]
//	                           [-requests 200] [-seed 1]
//
// serve: without -model, a freshly initialized (untrained) model is
// served — useful for smoke tests and load benchmarks. With -watch, the
// newest checkpoint in the directory is hot-swapped in whenever it
// changes, so online fine-tuning output rolls into serving without
// downtime. -cache turns on the insight-fingerprint response cache and
// the similarity outcome store (beam warm-starting); -retrieve-journal
// pre-populates the store by replaying an online-tuner run journal.
// -candidate-dir gates new checkpoints through shadow → canary → promote
// instead (DESIGN.md §16). Admission and deadline limits run at
// serve.DefaultConfig, and canary thresholds not named by a flag at
// lifecycle.DefaultThresholds. A replica has no circuit breaker: a failing
// decode answers 502 or 504 per request, and the fleet router's
// per-replica breaker takes a failing replica out of rotation.
// loadgen cycles 64 seeded insights through /v1/recommend and prints the
// request, failure and per-status counts as one JSON line; it measures
// no latency (perfbench does).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/lifecycle"
	"insightalign/internal/obs"
	"insightalign/internal/obs/slo"
	"insightalign/internal/retrieve"
	"insightalign/internal/serve"
)

func main() {
	args := os.Args[1:]
	// Default to serve mode so `insightalign-serve -model m.bin` works.
	mode := "serve"
	if len(args) > 0 && (args[0] == "serve" || args[0] == "loadgen") {
		mode = args[0]
		args = args[1:]
	}
	var err error
	switch mode {
	case "serve":
		err = cmdServe(args)
	case "loadgen":
		err = cmdLoadgen(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func cmdServe(args []string) error {
	cfg := serve.DefaultConfig()
	lc := lifecycle.DefaultConfig()
	th := &lc.Thresholds
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	modelPath := fs.String("model", "", "model or checkpoint file (empty: fresh untrained model)")
	watch := fs.String("watch", "", "checkpoint directory to poll for hot-swaps")
	poll := fs.Duration("poll", 2*time.Second, "checkpoint poll interval")
	cache := fs.Bool("cache", false, "enable the insight-fingerprint response cache + similarity outcome store")
	cacheSize := fs.Int("cache-size", retrieve.DefaultCacheSize, "response-cache capacity (entries)")
	retrieveJournal := fs.String("retrieve-journal", "", "online-tuner run journal to replay into the outcome store at boot")
	profileRing := fs.Bool("profile-ring", true, "continuous profiling: periodic CPU+heap pprof captures into a bounded on-disk ring at /debug/profiles")
	profileDir := fs.String("profile-dir", filepath.Join(os.TempDir(), "insightalign-profiles"), "profile ring directory")
	sloJournal := fs.String("slo-journal", "", "journal file for slo_alert state transitions (empty: not journaled)")
	candDir := fs.String("candidate-dir", "", "candidate checkpoint dir: new files enter shadow→canary gating instead of hot-swapping (see -watch)")
	lcJournal := fs.String("lifecycle-journal", "", "lifecycle event journal, opened append-mode so shadow/canary state survives restarts")
	fs.StringVar(&lc.QuarantineDir, "quarantine-dir", "", "rolled-back candidate files are moved here (empty: left in place, hash still blacklisted)")
	fs.StringVar(&lc.ShadowReplay, "shadow-replay", "", "online-tuner journal replay-scored at candidate submit (shadow evidence without live traffic)")
	fs.Float64Var(&lc.CanaryWeight, "canary-weight", lc.CanaryWeight, "fraction of fingerprints routed to the candidate during canary")
	fs.IntVar(&th.MinShadowSamples, "shadow-samples", th.MinShadowSamples, "shadow comparisons required before the shadow verdict")
	fs.IntVar(&lc.ShadowSampleEvery, "shadow-every", lc.ShadowSampleEvery, "mirror every Nth live request to the shadow candidate")
	fs.IntVar(&th.MinCanarySamples, "min-canary-samples", th.MinCanarySamples, "candidate requests required before any rollback trigger")
	fs.IntVar(&th.PromoteSamples, "promote-samples", th.PromoteSamples, "healthy candidate requests that trigger promotion")
	fs.Parse(args)

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg.Logger = logger
	if *cache {
		cfg.Cache = retrieve.NewCache(*cacheSize)
		cfg.Store = retrieve.NewStore()
	}
	if *retrieveJournal != "" {
		if cfg.Store == nil {
			cfg.Store = retrieve.NewStore()
		}
		n, err := retrieve.ReplayJournalFile(cfg.Store, *retrieveJournal)
		if err != nil {
			return fmt.Errorf("replay retrieve journal: %w", err)
		}
		logger.Info("retrieval store replayed", "path", *retrieveJournal,
			"outcomes", n, "designs", cfg.Store.Designs())
	}
	if *sloJournal != "" {
		j, err := obs.NewJournal(*sloJournal)
		if err != nil {
			return fmt.Errorf("slo journal: %w", err)
		}
		cfg.SLO = slo.New(slo.Config{Journal: j})
		logger.Info("slo alerts journaled", "path", *sloJournal)
	}
	if *profileRing {
		prof, err := obs.StartProfiler(obs.ProfilerConfig{Dir: *profileDir})
		if err != nil {
			return fmt.Errorf("profile ring: %w", err)
		}
		defer prof.Close()
		cfg.Profiler = prof
		logger.Info("continuous profiling on", "dir", *profileDir)
	}

	reg, err := serve.NewRegistry(cfg.Model)
	if err != nil {
		return err
	}
	if *modelPath != "" {
		snap, err := reg.LoadFile(*modelPath)
		if err != nil {
			return err
		}
		logger.Info("model loaded", "path", *modelPath, "version", snap.Version)
	} else {
		m, err := core.New(cfg.Model)
		if err != nil {
			return err
		}
		snap, err := reg.SetModel(m, "fresh")
		if err != nil {
			return err
		}
		logger.Warn("serving a fresh untrained model (no -model given)", "version", snap.Version)
	}

	// Checkpoint lifecycle: with -candidate-dir (or -lifecycle-journal for
	// resume-only setups), new checkpoints are gated through shadow
	// evaluation and canary instead of hot-swapped on sight. The
	// controller and the server share one metrics registry so lifecycle
	// gauges ride the same /metrics scrape.
	var ctl *lifecycle.Controller
	var srvForHooks *serve.Server
	if *candDir != "" || *lcJournal != "" {
		if *watch != "" {
			logger.Warn("-watch hot-swaps checkpoints ungated while -candidate-dir gates them; use one or the other")
		}
		if *lcJournal != "" {
			var err error
			if lc.Journal, err = obs.OpenJournal(*lcJournal); err != nil {
				return fmt.Errorf("lifecycle journal: %w", err)
			}
		}
		cfg.Metrics = obs.NewRegistry()
		lc.Registry, lc.Metrics, lc.Logger = reg, cfg.Metrics, logger
		lc.OnPromote = func(prev, promoted *serve.Snapshot) {
			logger.Info("candidate promoted", "version", promoted.Version, "source", promoted.Source)
			if srvForHooks != nil {
				// Retire both stale measurement scopes: the replaced
				// live version and the candidate's canary-time tag.
				if prev != nil {
					srvForHooks.Metrics().EvictVersion(prev.Version)
					srvForHooks.SLO().EvictScope(prev.Version)
				}
				srvForHooks.Metrics().EvictVersion("cand-" + promoted.Hash)
				srvForHooks.SLO().EvictScope("cand-" + promoted.Hash)
			}
		}
		lc.OnRollback = func(version, reason string) {
			logger.Warn("candidate rolled back", "version", version, "reason", reason)
			if srvForHooks != nil {
				srvForHooks.Metrics().EvictVersion(version)
				srvForHooks.SLO().EvictScope(version)
			}
		}
		var err error
		ctl, err = lifecycle.New(lc)
		if err != nil {
			return err
		}
		defer ctl.Close()
		if err := ctl.Resume(); err != nil {
			return err
		}
		cfg.Canary = ctl
	}

	srv, err := serve.New(cfg, reg)
	if err != nil {
		return err
	}
	srvForHooks = srv
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *watch != "" {
		go reg.WatchDir(ctx, *watch, *poll, logger)
	}
	if ctl != nil && *candDir != "" {
		go ctl.WatchDir(ctx, *candDir, *poll, logger)
	}
	errc, err := srv.Start()
	if err != nil {
		return err
	}
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
	return srv.Shutdown(shCtx)
}
