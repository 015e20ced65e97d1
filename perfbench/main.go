// Command perfbench is the repository's benchmark: three workloads, each
// checked against an output oracle, printing every metric by name and unit.
//
//	bash perfbench/run.sh --workload serve_cold|fleet_hot|design_pipeline \
//	    --seed N --seconds S --trace 0|1
//
// run.sh builds cmd/insightalign-serve, cmd/insightalign-router and this
// command from the checkout into .bench_build/ and runs it from the
// repository root. With --trace 0 the end-to-end metrics are measured
// against the real binaries, each in its own process, with no tracing.
// With --trace 1 perfbench also hosts the layers in its own process,
// times its calls into them, and prints the per-layer metrics and one
// reconciliation line per workload. The last line of standard output is
// the JSON result; the lines before it are the run stamp, per-phase
// counts and oracle findings. METRICS.md defines every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

var inf = math.Inf(1)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd and perLayer mirror BENCHMARK.json. Every workload reports
// every metric; a layer a workload leaves idle reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"capacity_rps", "rps"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"wall_s", "s"},
}

var perLayer = []metricDef{
	{"serve.handler_self_us", "us"},
	{"serve.json_decode_us", "us"},
	{"serve.json_encode_us", "us"},
	{"serve.allocs_per_req", "count"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.decoder_calls_per_req", "ratio"},
	{"serve.rejections", "count"},
	{"core.beam_search_us", "us"},
	{"core.beam_allocs", "count"},
	{"core.beam_sessions_per_req", "ratio"},
	{"core.train_epoch_s", "s"},
	{"core.train_pairs_per_s", "1/s"},
	{"core.train_allocs_per_pair", "count"},
	{"core.zeroshot_qor", "score"},
	{"retrieve.cache_hit_ratio", "ratio"},
	{"retrieve.cache_lookups", "count"},
	{"retrieve.best_sets_us_start", "us"},
	{"retrieve.best_sets_us_mid", "us"},
	{"retrieve.best_sets_us_end", "us"},
	{"retrieve.add_us", "us"},
	{"retrieve.store_designs_end", "count"},
	{"fleet.hop_ms", "ms"},
	{"fleet.hedge_win_ratio", "ratio"},
	{"fleet.hedges_fired", "count"},
	{"flow.placement_ms", "ms"},
	{"flow.cts_ms", "ms"},
	{"flow.route_ms", "ms"},
	{"flow.sta_ms", "ms"},
	{"flow.power_ms", "ms"},
	{"flow.runs", "count"},
	{"dataset.build_s", "s"},
	{"online.iter_s_p50", "s"},
	{"online.update_s", "s"},
	{"online.flow_share", "ratio"},
	{"online.best_qor", "score"},
	{"go.gc_pause_total_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"reconcile.layer_sum_ms", "ms"},
	{"reconcile.unexplained_ms", "ms"},
	{"reconcile.overhead_ms", "ms"},
}

// env is what every workload runs with.
type env struct {
	bin     string // directory holding the built binaries
	dir     string // this run's scratch directory inside the checkout
	spans   string // directory the traced run writes its spans into
	seed    int64
	seconds int
	conns   int // open-loop connections: at most nproc
}

// report is a workload's outcome. metrics holds values by name; names
// absent from it report 0 (an idle layer).
type report struct {
	attempted int
	failed    int // failed, refused or rejected by the oracle
	metrics   map[string]float64
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

var workloads = map[string]func(ctx context.Context, e env, trace bool) (report, error){
	"serve_cold":      runServeCold,
	"fleet_hot":       runFleetHot,
	"design_pipeline": runPipeline,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "serve_cold, fleet_hot or design_pipeline")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := flag.String("bin", ".bench_build/bin", "directory of the built binaries")
	work := flag.String("work", ".bench_build/work", "scratch directory inside the checkout")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds < 1 {
		return fmt.Errorf("seconds %d must be >= 1", *seconds)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	dir := filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d-pid%d", *workload, *seed, *trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans := filepath.Join(*work, "spans")
	if err := os.MkdirAll(spans, 0o755); err != nil {
		return err
	}
	e := env{bin: *bin, dir: dir, spans: spans, seed: *seed, seconds: *seconds, conns: runtime.NumCPU()}
	printStamp(*workload, e, *trace == 1)

	rep, err := fn(ctx, e, *trace == 1)
	if err != nil {
		return fmt.Errorf("%s: %w (logs in %s)", *workload, err, dir)
	}
	// A clean run leaves no per-request logs behind; spans stay.
	os.RemoveAll(dir)

	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	res := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v := rep.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// Program flags the benchmark passes. The continuous profiler is turned
// off: its first CPU capture fires 60 s after boot and its default ring
// directory lies outside the checkout.
var (
	serveFlags  = []string{"serve", "-profile-ring=false"}
	routerFlags = []string{"route", "-profile-ring=false"}
)

// printStamp records the machine, toolchain, source and program flags.
func printStamp(workload string, e env, trace bool) {
	stamp := map[string]any{
		"workload":            workload,
		"seed":                e.seed,
		"seconds":             e.seconds,
		"trace":               trace,
		"nproc":               runtime.NumCPU(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"go":                  runtime.Version(),
		"cpu":                 cpuModel(),
		"commit":              sourceDigest(),
		"conns":               e.conns,
		"serve_flags":         append(append([]string{}, serveFlags...), "-model <checkpoint minted from the seed>", "-addr <free loopback port>"),
		"fleet_replica_flags": fleetReplicaFlags,
		"router_flags":        append(append([]string{}, routerFlags...), "-replicas <replica URLs>", "-addr <free loopback port>"),
		"profile_ring":        "off (-profile-ring=false on serve and router)",
		"phase_validity":      map[string]float64{"steal_limit": stealLimit, "lag_p99_limit_ms": lagLimitMS, "retries": phaseRetries},
	}
	b, _ := json.Marshal(stamp)
	fmt.Println("run_stamp " + string(b))
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest identifies the code under test: the checkout is not a git
// repository, so the commit is named by a SHA-256 over every Go source and
// module file, in path order.
func sourceDigest() string {
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(raw))
		h.Write(raw)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// median of an unsorted sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// setupRepeats is how many set-ups an untraced run times for setup_s.
const setupRepeats = 21

// notApplicable is what a workload prints for an end-to-end metric it has
// no measurement for: every workload must print every metric, and a
// metric may not read 0. METRICS.md lists where it is printed.
const notApplicable = 1.0

// timeSetup runs setup n times, keeping the last result running and
// tearing the others down, and returns the median set-up time: process
// start-up noise is large next to the work, so one sample is not enough.
func timeSetup[T any](n int, setup func() (T, error), teardown func(T)) (T, float64, error) {
	var zero T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == n-1 {
			return v, median(secs), nil
		}
		teardown(v)
	}
	return zero, 0, fmt.Errorf("timeSetup: n=%d", n)
}

// detail prints one labelled JSON line before the result line.
func detail(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", fmt.Sprint(v)))
	}
	fmt.Println(label + " " + string(b))
}
