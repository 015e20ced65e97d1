// Command insightalign-ctl is the operator CLI for the checkpoint
// lifecycle: it drives a serving process's /debug/lifecycle endpoint
// (submit a candidate, inspect shadow/canary progress, force a promote
// or rollback) and performs linear weight merges of per-design
// tuned checkpoints back into a base model, optionally with a zero-shot
// Table-IV-style before/after evaluation.
//
// Usage:
//
//	insightalign-ctl status   [-addr http://127.0.0.1:8080]
//	insightalign-ctl submit   -path ckpt.bin [-addr ...]
//	insightalign-ctl promote  [-addr ...]
//	insightalign-ctl rollback [-reason why] [-addr ...]
//	insightalign-ctl merge    -base base.bin -tuned a.bin,b.bin -out merged.bin
//	                          [-alpha 0.5] [-eval] [-data dataset.gob]
//	                          [-scale 0.15] [-points 176] [-seed 1]
//	insightalign-ctl mint     -out cand.bin [-seed 7] [-from base.bin -jitter 0.01]
//
// merge computes out = (1−α)·base + α·mean(tuned...) per parameter —
// deterministic (the report's hash is reproducible bit-for-bit) and
// shape-checked, rejecting non-finite weights. With -eval, the merged
// model and the base are both zero-shot evaluated over the dataset's
// designs and the before/after Win% table is printed, so a merged
// generalist can be judged before it enters the shadow→canary pipeline.
// mint writes a fresh (or jittered copy of an existing) parameter file —
// the quick way to produce a submit-able candidate for demos and tests.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"time"

	"insightalign/internal/core"
	"insightalign/internal/dataset"
	"insightalign/internal/experiments"
	"insightalign/internal/lifecycle"
	"insightalign/internal/nn"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "status":
		err = cmdStatus(os.Args[2:])
	case "submit":
		err = cmdAction("submit", os.Args[2:])
	case "promote":
		err = cmdAction("promote", os.Args[2:])
	case "rollback":
		err = cmdAction("rollback", os.Args[2:])
	case "merge":
		err = cmdMerge(os.Args[2:])
	case "mint":
		err = cmdMint(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: insightalign-ctl <status|submit|promote|rollback|merge|mint> [flags]")
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serving process base URL")
	fs.Parse(args)
	resp, err := http.Get(strings.TrimRight(*addr, "/") + "/debug/lifecycle")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("lifecycle status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	os.Stdout.Write(body)
	return nil
}

// cmdAction POSTs one state-machine action to /debug/lifecycle.
func cmdAction(action string, args []string) error {
	fs := flag.NewFlagSet(action, flag.ExitOnError)
	addr := fs.String("addr", "http://127.0.0.1:8080", "serving process base URL")
	path := fs.String("path", "", "candidate checkpoint path (submit only; must be visible to the server)")
	reason := fs.String("reason", "", "rollback reason (rollback only)")
	fs.Parse(args)
	if action == "submit" && *path == "" {
		return fmt.Errorf("submit requires -path")
	}
	payload, _ := json.Marshal(map[string]string{"action": action, "path": *path, "reason": *reason})
	resp, err := http.Post(strings.TrimRight(*addr, "/")+"/debug/lifecycle",
		"application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("lifecycle %s failed (%d): %s", action, resp.StatusCode, bytes.TrimSpace(body))
	}
	os.Stdout.Write(body)
	return nil
}

func cmdMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	basePath := fs.String("base", "", "base model/checkpoint file")
	tunedList := fs.String("tuned", "", "comma-separated per-design tuned checkpoint files")
	outPath := fs.String("out", "", "merged parameter file to write (empty: dry run, report only)")
	alpha := fs.Float64("alpha", 0.5, "interpolation weight toward the tuned mean, in [0, 1]")
	doEval := fs.Bool("eval", false, "zero-shot before/after evaluation over the dataset's designs")
	dataPath := fs.String("data", "", "existing dataset.gob for -eval (built at -scale/-points if empty)")
	scale := fs.Float64("scale", 0.15, "suite gate-count scale when building the eval dataset")
	points := fs.Int("points", 176, "datapoints per design when building the eval dataset")
	seed := fs.Int64("seed", 1, "eval dataset seed")
	fs.Parse(args)
	if *basePath == "" || *tunedList == "" {
		return fmt.Errorf("merge requires -base and -tuned")
	}
	tunedPaths := strings.Split(*tunedList, ",")
	cfg := core.DefaultConfig()
	merged, rep, err := lifecycle.MergeFiles(cfg, *basePath, tunedPaths, *outPath, *alpha)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
	if *outPath != "" {
		fmt.Printf("merged model written to %s\n", *outPath)
	}
	if !*doEval {
		return nil
	}
	ds, err := loadOrBuildDataset(*dataPath, *scale, *points, *seed)
	if err != nil {
		return err
	}
	env, err := experiments.NewEnv(ds, experiments.Quick())
	if err != nil {
		return err
	}
	base, err := loadModel(cfg, *basePath)
	if err != nil {
		return err
	}
	fmt.Println("zero-shot evaluating base model...")
	before, err := env.EvalModelZeroShot(base, nil)
	if err != nil {
		return err
	}
	fmt.Println("zero-shot evaluating merged model...")
	after, err := env.EvalModelZeroShot(merged, nil)
	if err != nil {
		return err
	}
	fmt.Print(experiments.FormatZeroShotDelta(
		fmt.Sprintf("alpha=%g over %d tuned checkpoints", *alpha, len(tunedPaths)), before, after))
	return nil
}

func cmdMint(args []string) error {
	fs := flag.NewFlagSet("mint", flag.ExitOnError)
	outPath := fs.String("out", "", "parameter file to write")
	seed := fs.Int64("seed", 7, "fresh-model init seed (ignored with -from)")
	fromPath := fs.String("from", "", "existing parameter file to copy instead of fresh init")
	jitter := fs.Float64("jitter", 0, "uniform ±jitter noise added to every parameter (makes -from copies distinct)")
	fs.Parse(args)
	if *outPath == "" {
		return fmt.Errorf("mint requires -out")
	}
	cfg := core.DefaultConfig()
	var m *core.Model
	var err error
	if *fromPath != "" {
		m, err = loadModel(cfg, *fromPath)
	} else {
		cfg.Seed = *seed
		m, err = core.New(cfg)
	}
	if err != nil {
		return err
	}
	if *jitter > 0 {
		rng := rand.New(rand.NewSource(*seed))
		for _, p := range m.Params() {
			for i := range p.Data {
				p.Data[i] += (rng.Float64()*2 - 1) * *jitter
			}
		}
	}
	if err := nn.SaveParamsFile(*outPath, m.Params()); err != nil {
		return err
	}
	fmt.Printf("minted %s (seed %d, from %q, jitter %g)\n", *outPath, *seed, *fromPath, *jitter)
	return nil
}

func loadModel(cfg core.Config, path string) (*core.Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadParams(bytes.NewReader(raw), m.Params()); err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return m, nil
}

func loadOrBuildDataset(path string, scale float64, points int, seed int64) (*dataset.Dataset, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.Load(f)
	}
	opts := dataset.DefaultBuildOptions()
	opts.Scale = scale
	opts.PointsPerDesign = points
	opts.Seed = seed
	fmt.Printf("building eval dataset (scale %g, %d points/design)...\n", scale, points)
	t0 := time.Now()
	ds, err := dataset.Build(opts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("built %d datapoints in %v\n", len(ds.Points), time.Since(t0))
	return ds, nil
}
