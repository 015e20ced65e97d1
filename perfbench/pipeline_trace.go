package main

import (
	"fmt"
	"time"

	"insightalign/internal/flow"
)

// pipelineLayers reports the per-layer numbers of a traced design_pipeline
// run from its second pipeline, with the first as the untraced reference.
// Spans come from the step boundaries and the flow runners' stage seams.
func pipelineLayers(e env, ref, r *pipeResult, rep *report) error {
	rep.metrics["dataset.build_s"] = r.build.Seconds()
	var epochS, pairsPerS []float64
	for _, es := range r.epochs {
		epochS = append(epochS, es.Duration.Seconds())
		pairsPerS = append(pairsPerS, es.PairsPerSec)
	}
	rep.metrics["core.train_epoch_s"] = median(epochS)
	rep.metrics["core.train_pairs_per_s"] = median(pairsPerS)
	rep.metrics["core.train_allocs_per_pair"] = r.trainAllocsPerPair
	rep.metrics["core.zeroshot_qor"] = r.zeroshotQoR
	rep.metrics["online.best_qor"] = r.bestQoR[len(r.bestQoR)-1]
	rep.metrics["go.gc_pause_total_ms"] = msOf(r.gcPause)

	runs := append(append([]*flowRun{}, r.evalRuns...), r.tuneRuns...)
	for _, st := range []string{flow.StagePlacement, flow.StageCTS, flow.StageRoute, flow.StageSTA, flow.StagePower} {
		var ds []float64
		for _, fr := range runs {
			ds = append(ds, msOf(fr.stageDur(st)))
		}
		rep.metrics["flow."+st+"_ms"] = median(ds)
	}
	rep.metrics["flow.runs"] = float64(r.archiveRuns + len(runs))

	var iters, updates []float64
	var iterSum, flowSum time.Duration
	for i, d := range r.iterDur {
		iters = append(iters, d.Seconds())
		updates = append(updates, (d - r.iterFlow[i]).Seconds())
		iterSum += d
		flowSum += r.iterFlow[i]
	}
	rep.metrics["online.iter_s_p50"] = median(iters)
	rep.metrics["online.update_s"] = median(updates)
	rep.metrics["online.flow_share"] = flowSum.Seconds() / iterSum.Seconds()

	var reps []int
	for i := 0; i < 20; i++ {
		for j := range r.ivs {
			reps = append(reps, j)
		}
	}
	us, allocs := perOp(len(reps), func(i int) { r.model.BeamSearch(r.ivs[reps[i]], beamK) })
	rep.metrics["core.beam_search_us"] = us
	rep.metrics["core.beam_allocs"] = allocs

	// Spans: the four steps under one pipeline root, flow runs under the
	// step that made them.
	rec := &recorder{}
	id := fmt.Sprintf("pipeline-seed%d", e.seed)
	t := r.start
	step := func(name string, d time.Duration) {
		rec.add(span{ID: id, Name: name, Parent: "pipeline", Start: t, End: t.Add(d)})
		t = t.Add(d)
	}
	rec.add(span{ID: id, Name: "pipeline", Start: r.start, End: r.start.Add(r.wall)})
	step("dataset.build", r.build)
	step("core.train", r.train)
	step("core.zeroshot", r.zeroshot)
	step("online.tune", r.tune)
	for _, fr := range r.evalRuns {
		rec.add(span{ID: id, Name: "flow.eval", Parent: "core.zeroshot", Start: fr.start(), End: fr.end})
	}
	for _, fr := range r.tuneRuns {
		rec.add(span{ID: id, Name: "flow.tune", Parent: "online.tune", Start: fr.start(), End: fr.end})
	}
	self := selfTimes(rec.byID()[id])
	layers := map[string]float64{
		"dataset.build": self["dataset.build"].Seconds(),
		"core.train":    self["core.train"].Seconds(),
		"core.zeroshot": self["core.zeroshot"].Seconds(),
		"flow":          (self["flow.eval"] + self["flow.tune"]).Seconds(),
		"online.tune":   self["online.tune"].Seconds(),
	}
	reconcile("design_pipeline", layers, []string{"dataset.build", "core.train", "core.zeroshot", "flow", "online.tune"},
		ref.wall.Seconds(), ref.wall.Seconds(), r.wall.Seconds(), "s", rep)
	return rec.write(spansPath(e, "design_pipeline"))
}
