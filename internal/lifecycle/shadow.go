package lifecycle

import (
	"encoding/json"
	"fmt"
	"math"

	"insightalign/internal/obs"
	"insightalign/internal/recipe"
	"insightalign/internal/serve"
)

// shadowWorker drains mirrored live requests and scores the candidate
// against the live model off the response path: both decode the same
// insight with beam width 1 and the top-1 log-probs are compared. Runs
// until Close; a sample that arrives after the shadow ended is dropped
// inside recordShadowSample.
func (c *Controller) shadowWorker() {
	defer c.workerWG.Done()
	for {
		select {
		case <-c.closed:
			return
		case item := <-c.mirrorCh:
			cand := c.Candidate()
			live := c.cfg.Registry.Current()
			if cand == nil || live == nil {
				continue
			}
			delta, err := shadowCompare(cand, live, item.iv)
			c.recordShadowSample(delta, err != nil)
		}
	}
}

// shadowCompare decodes iv on both arms and returns live top-1 log-prob
// minus candidate top-1 log-prob (positive: candidate is worse). A
// decode panic (malformed vector that slipped past validation) is
// converted to an error sample rather than killing the worker.
func shadowCompare(cand, live *serve.Snapshot, iv []float64) (delta float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lifecycle: shadow decode panic: %v", r)
		}
	}()
	cc := cand.Model.BeamSearch(iv, 1)
	lc := live.Model.BeamSearch(iv, 1)
	if len(cc) == 0 || len(lc) == 0 {
		return 0, fmt.Errorf("lifecycle: shadow decode returned no candidates")
	}
	d := lc[0].LogProb - cc[0].LogProb
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0, fmt.Errorf("lifecycle: non-finite shadow delta")
	}
	return d, nil
}

// replayPayload is the subset of online.IterationJournalEntry the replay
// scorer needs (decoded locally to keep lifecycle's dependency surface
// to serve + obs + core).
type replayPayload struct {
	Sets    []string  `json:"sets"`
	QoRs    []float64 `json:"qors"`
	Insight []float64 `json:"insight"`
}

// replayScoreLocked scores the candidate against the live model over the
// online-tuner journal configured in ShadowReplay: for every
// online_iteration entry, the iteration's best-QoR recipe set is scored
// by both models on the journaled insight vector. This is the "recent
// tuner history" half of shadow evaluation — evidence the gate can act
// on even before any live traffic is mirrored. Caller holds mu.
func (c *Controller) replayScoreLocked(cand *serve.Snapshot) (shadowStats, error) {
	var st shadowStats
	live := c.cfg.Registry.Current()
	if live == nil {
		return st, fmt.Errorf("lifecycle: no live model for replay scoring")
	}
	entries, err := obs.ReadJournalFile(c.cfg.ShadowReplay)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		if e.Event != "online_iteration" || len(e.Data) == 0 {
			continue
		}
		var p replayPayload
		if err := json.Unmarshal(e.Data, &p); err != nil {
			continue
		}
		if len(p.Insight) == 0 || len(p.Sets) == 0 || len(p.Sets) != len(p.QoRs) {
			continue
		}
		best, bestQoR := -1, math.Inf(-1)
		for i, q := range p.QoRs {
			if q > bestQoR {
				best, bestQoR = i, q
			}
		}
		set, err := recipe.ParseSet(p.Sets[best])
		if err != nil {
			continue
		}
		bits := set.Bits()
		// Journaled sets are always recipe.N bits; a reduced-architecture
		// model (tests, scaled-down deployments) scores its prefix.
		if n := cand.Model.Cfg.NumRecipes; n < len(bits) {
			bits = bits[:n]
		}
		delta, err := replayCompare(cand, live, p.Insight, bits)
		st.samples++
		if err != nil {
			st.errors++
			continue
		}
		st.sumDelta += delta
	}
	return st, nil
}

// replayCompare scores one journaled (insight, recipe set) on both arms.
func replayCompare(cand, live *serve.Snapshot, iv []float64, bits []int) (delta float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("lifecycle: replay score panic: %v", r)
		}
	}()
	clp := cand.Model.SeqLogProb(iv, bits)
	llp := live.Model.SeqLogProb(iv, bits)
	d := llp - clp
	if math.IsNaN(d) || math.IsInf(d, 0) {
		return 0, fmt.Errorf("lifecycle: non-finite replay delta")
	}
	return d, nil
}

// unmarshalEvent decodes a journaled lifecycle_event payload.
func unmarshalEvent(raw json.RawMessage, ev *EventData) error {
	return json.Unmarshal(raw, ev)
}
