package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/obs"
	"insightalign/internal/serve"
)

// LocalFleet boots N in-process serve.Servers on loopback listeners — the
// harness behind `insightalign-router route -spawn N` and the
// kill/recovery E2E. Each replica gets its own model
// registry and metrics registry (separate processes would too) while all
// replicas share one tracer with the router, so a routed request's spans
// — router root, forward, replica handler, admission queue, decoder
// session — land in a single /debug/traces ring.
type LocalFleet struct {
	Replicas []*LocalReplica
	opts     LocalOptions
}

// LocalReplica is one in-process backend and its restart state.
type LocalReplica struct {
	URL  string
	addr string // pinned after first Start so Restart rebinds the same port
	srv  *serve.Server
	reg  *serve.Registry
	cfg  serve.Config
	up   bool
}

// LocalOptions parameterize StartLocalFleet.
type LocalOptions struct {
	// Seed initializes every replica's (identical) fresh model.
	Seed int64
	// ServeConfig overrides the per-replica serve.Config template; nil
	// uses serve.DefaultConfig. Addr, Metrics, and Tracer are managed by
	// the fleet.
	ServeConfig *serve.Config
	// Tracer is shared by all replicas (and should be shared with the
	// router); nil uses obs.DefaultTracer.
	Tracer *obs.Tracer
	// Hook returns replica i's BackendHook (the fault-injection seam);
	// nil means no hooks.
	Hook func(i int) func(context.Context) error
	// Logger for the replicas; nil discards via slog.Default.
	Logger *slog.Logger
}

// StartLocalFleet boots n replicas and returns once all listeners are up.
func StartLocalFleet(n int, opts LocalOptions) (*LocalFleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: local fleet needs at least 1 replica, got %d", n)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Tracer == nil {
		opts.Tracer = obs.DefaultTracer()
	}
	lf := &LocalFleet{opts: opts}
	for i := 0; i < n; i++ {
		rep := &LocalReplica{addr: "127.0.0.1:0"}
		if err := lf.boot(i, rep); err != nil {
			lf.Close()
			return nil, err
		}
		lf.Replicas = append(lf.Replicas, rep)
	}
	return lf, nil
}

// boot builds and starts replica i's server on rep.addr.
func (lf *LocalFleet) boot(i int, rep *LocalReplica) error {
	cfg := serve.DefaultConfig()
	if lf.opts.ServeConfig != nil {
		cfg = *lf.opts.ServeConfig
	}
	cfg.Addr = rep.addr
	cfg.Metrics = obs.NewRegistry()
	cfg.Tracer = lf.opts.Tracer
	if lf.opts.Logger != nil {
		cfg.Logger = lf.opts.Logger
	}
	if lf.opts.Hook != nil {
		cfg.BackendHook = lf.opts.Hook(i)
	}
	if rep.reg == nil {
		reg, err := serve.NewRegistry(cfg.Model)
		if err != nil {
			return err
		}
		mcfg := cfg.Model
		mcfg.Seed = lf.opts.Seed
		m, err := core.New(mcfg)
		if err != nil {
			return err
		}
		if _, err := reg.SetModel(m, fmt.Sprintf("local-fleet-%d", i)); err != nil {
			return err
		}
		rep.reg = reg
	}
	srv, err := serve.New(cfg, rep.reg)
	if err != nil {
		return err
	}
	if _, err := srv.Start(); err != nil {
		return err
	}
	rep.srv = srv
	rep.cfg = cfg
	rep.addr = srv.Addr() // pin the resolved port for restarts
	rep.URL = "http://" + rep.addr
	rep.up = true
	return nil
}

// URLs lists the replica base URLs in index order.
func (lf *LocalFleet) URLs() []string {
	out := make([]string, len(lf.Replicas))
	for i, r := range lf.Replicas {
		out[i] = r.URL
	}
	return out
}

// Kill shuts replica i down (listener closed, in-flight drained) — the
// local stand-in for a process death. The replica keeps its model
// registry so Restart resumes with the same weights on the same port.
func (lf *LocalFleet) Kill(ctx context.Context, i int) error {
	rep := lf.Replicas[i]
	if !rep.up {
		return nil
	}
	rep.up = false
	return rep.srv.Shutdown(ctx)
}

// Restart brings a killed replica back on its original address.
func (lf *LocalFleet) Restart(i int) error {
	rep := lf.Replicas[i]
	if rep.up {
		return nil
	}
	// The old listener frees its port on Shutdown; rebinding can race the
	// kernel's cleanup briefly, so retry for a moment.
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = lf.boot(i, rep); err == nil {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("fleet: restart replica %d on %s: %w", i, rep.addr, err)
}

// Close shuts every live replica down.
func (lf *LocalFleet) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, rep := range lf.Replicas {
		if rep != nil && rep.up {
			lf.Kill(ctx, i)
		}
	}
}
