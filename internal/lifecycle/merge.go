package lifecycle

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"

	"insightalign/internal/core"
	"insightalign/internal/nn"
)

// MergeReport describes one weight merge: provenance for the journal and
// the CLI. Hash is the sha256 of the merged parameter stream — the same
// bytes SaveParams writes — so a merge is reproducible bit-for-bit:
// identical inputs and α always yield an identical hash.
type MergeReport struct {
	Alpha     float64 `json:"alpha"`
	Tuned     int     `json:"tuned"`
	Params    int     `json:"params"`
	Hash      string  `json:"hash"`
	MaxShift  float64 `json:"max_shift"`
	MeanShift float64 `json:"mean_shift"`
}

// Merge interpolates per-design tuned checkpoints back into a base model
// linearly: for every parameter tensor,
//
//	out = (1−α)·base + α·mean(tuned...)
//
// α = 0 returns the base weights, α = 1 the tuned average. This is plain
// linear interpolation, not ChipAlign's geodesic interpolation (PAPERS.md),
// which moves along the great circle between normalized weights. All models
// must share the base's architecture — every parameter tensor is
// shape-checked, and any non-finite input weight or α outside [0, 1]
// rejects the merge before anything is written. The returned model is
// freshly allocated (inputs are never mutated) and the merge is
// deterministic: tensors are visited in Params() order, tuned models in
// argument order, so a fixed input set always produces the same bytes.
func Merge(base *core.Model, tuned []*core.Model, alpha float64) (*core.Model, MergeReport, error) {
	var rep MergeReport
	if base == nil {
		return nil, rep, fmt.Errorf("lifecycle: merge: nil base model")
	}
	if len(tuned) == 0 {
		return nil, rep, fmt.Errorf("lifecycle: merge: no tuned models")
	}
	if math.IsNaN(alpha) || alpha < 0 || alpha > 1 {
		return nil, rep, fmt.Errorf("lifecycle: merge: alpha %v outside [0, 1]", alpha)
	}
	baseParams := base.Params()
	tunedParams := make([][]float64, len(baseParams))
	for ti, tm := range tuned {
		if tm == nil {
			return nil, rep, fmt.Errorf("lifecycle: merge: tuned model %d is nil", ti)
		}
		tp := tm.Params()
		if len(tp) != len(baseParams) {
			return nil, rep, fmt.Errorf("lifecycle: merge: tuned model %d has %d parameter tensors, base has %d",
				ti, len(tp), len(baseParams))
		}
		for pi, t := range tp {
			if len(t.Data) != len(baseParams[pi].Data) {
				return nil, rep, fmt.Errorf("lifecycle: merge: tuned model %d tensor %d shape %v, base %v",
					ti, pi, t.Shape(), baseParams[pi].Shape())
			}
			for k, v := range t.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, rep, fmt.Errorf("lifecycle: merge: tuned model %d tensor %d element %d is non-finite", ti, pi, k)
				}
			}
			if tunedParams[pi] == nil {
				tunedParams[pi] = make([]float64, len(t.Data))
			}
		}
	}
	for pi, t := range baseParams {
		for k, v := range t.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, rep, fmt.Errorf("lifecycle: merge: base tensor %d element %d is non-finite", pi, k)
			}
		}
		_ = tunedParams[pi]
	}
	// Accumulate the tuned mean in fixed order (argument order, then
	// element order) so floating-point summation is reproducible.
	inv := 1.0 / float64(len(tuned))
	for _, tm := range tuned {
		for pi, t := range tm.Params() {
			acc := tunedParams[pi]
			for k, v := range t.Data {
				acc[k] += v * inv
			}
		}
	}
	out, err := core.New(base.Cfg)
	if err != nil {
		return nil, rep, err
	}
	outParams := out.Params()
	var maxShift, sumShift float64
	var n int
	for pi, t := range outParams {
		bp := baseParams[pi].Data
		mp := tunedParams[pi]
		for k := range t.Data {
			v := (1-alpha)*bp[k] + alpha*mp[k]
			t.Data[k] = v
			shift := math.Abs(v - bp[k])
			if shift > maxShift {
				maxShift = shift
			}
			sumShift += shift
			n++
		}
	}
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, outParams); err != nil {
		return nil, rep, fmt.Errorf("lifecycle: merge: hash params: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	rep = MergeReport{
		Alpha:     alpha,
		Tuned:     len(tuned),
		Params:    n,
		Hash:      hex.EncodeToString(sum[:]),
		MaxShift:  maxShift,
		MeanShift: sumShift / float64(n),
	}
	return out, rep, nil
}

// MergeFiles loads a base checkpoint and one or more tuned checkpoints
// of the given architecture, merges them with Merge, and writes the
// result to outPath (skipped when outPath is empty — dry-run mode).
func MergeFiles(cfg core.Config, basePath string, tunedPaths []string, outPath string, alpha float64) (*core.Model, MergeReport, error) {
	var rep MergeReport
	base, err := loadModelFile(cfg, basePath)
	if err != nil {
		return nil, rep, fmt.Errorf("lifecycle: merge base: %w", err)
	}
	tuned := make([]*core.Model, 0, len(tunedPaths))
	for _, p := range tunedPaths {
		m, err := loadModelFile(cfg, p)
		if err != nil {
			return nil, rep, fmt.Errorf("lifecycle: merge tuned %s: %w", p, err)
		}
		tuned = append(tuned, m)
	}
	out, rep, err := Merge(base, tuned, alpha)
	if err != nil {
		return nil, rep, err
	}
	if outPath != "" {
		if err := nn.SaveParamsFile(outPath, out.Params()); err != nil {
			return nil, rep, fmt.Errorf("lifecycle: merge write: %w", err)
		}
	}
	return out, rep, nil
}

// loadModelFile builds a model of the given architecture from a bare
// parameter stream or an online-tuner checkpoint (trailing tuner state
// is ignored by LoadParams' staged reader).
func loadModelFile(cfg core.Config, path string) (*core.Model, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := nn.LoadParams(bytes.NewReader(raw), m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}
