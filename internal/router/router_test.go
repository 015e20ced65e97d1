package router

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

func placed(t *testing.T, gates int, locality float64, util float64) (*netlist.Netlist, *placer.Result) {
	t.Helper()
	nl, err := netlist.Generate(netlist.Spec{
		Name: "r", Seed: 31, Gates: gates, SeqFraction: 0.25, Depth: 10,
		TechName: "N16", ClockTightness: 1.0, HVTFraction: 0.3, LVTFraction: 0.1,
		Locality: locality, FanoutSkew: 0.5, ShortPathFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := placer.DefaultOptions()
	opt.TargetUtil = util
	pl, err := placer.Place(nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	return nl, pl
}

func TestRouteBasic(t *testing.T) {
	nl, pl := placed(t, 500, 0.5, 0.7)
	res, err := Route(nl, pl, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NetLengthUM) != len(nl.Cells) {
		t.Fatal("NetLengthUM wrong length")
	}
	if res.TotalWirelengthUM <= 0 {
		t.Fatal("zero total wirelength")
	}
	for id := range nl.Cells {
		if len(nl.Cells[id].Fanouts) > 0 && res.NetLengthUM[id] < 0 {
			t.Fatalf("negative net length for %d", id)
		}
	}
	if res.AvgEdgeUtil < 0 {
		t.Fatal("negative edge util")
	}
}

func TestRouteDeterministic(t *testing.T) {
	nl, pl := placed(t, 400, 0.5, 0.7)
	a, _ := Route(nl, pl, DefaultOptions())
	b, _ := Route(nl, pl, DefaultOptions())
	if a.TotalWirelengthUM != b.TotalWirelengthUM || a.OverflowTotal != b.OverflowTotal {
		t.Fatal("routing not deterministic")
	}
}

func TestIterationsReduceOverflow(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.92) // congestion-prone
	none := DefaultOptions()
	none.Iterations = 0
	many := DefaultOptions()
	many.Iterations = 6
	a, _ := Route(nl, pl, none)
	b, _ := Route(nl, pl, many)
	if a.OverflowTotal == 0 {
		t.Skip("design not congested enough to test overflow reduction")
	}
	// Negotiated rerouting trades peak congestion for spread: the worst
	// edge and the DRC estimate must improve, even if total overflow is
	// redistributed over more edges.
	if b.MaxEdgeOverflow >= a.MaxEdgeOverflow {
		t.Fatalf("iterations did not reduce peak overflow: %d -> %d", a.MaxEdgeOverflow, b.MaxEdgeOverflow)
	}
	if b.DRCViolations >= a.DRCViolations {
		t.Fatalf("iterations did not reduce DRC estimate: %d -> %d", a.DRCViolations, b.DRCViolations)
	}
}

func TestDetoursCostWirelength(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.92)
	none := DefaultOptions()
	none.Iterations = 0
	many := DefaultOptions()
	many.Iterations = 6
	many.DetourPenalty = 0.05
	a, _ := Route(nl, pl, none)
	b, _ := Route(nl, pl, many)
	if b.DetouredNets > 0 && b.TotalWirelengthUM < a.TotalWirelengthUM {
		t.Fatalf("detours should not shorten wirelength: %g -> %g", a.TotalWirelengthUM, b.TotalWirelengthUM)
	}
}

func TestLowerTrackUtilMoreOverflow(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.9)
	tight := DefaultOptions()
	tight.TrackUtil = 0.4
	loose := DefaultOptions()
	loose.TrackUtil = 1.0
	a, _ := Route(nl, pl, tight)
	b, _ := Route(nl, pl, loose)
	if a.OverflowTotal < b.OverflowTotal {
		t.Fatalf("tighter capacity should overflow more: tight=%d loose=%d", a.OverflowTotal, b.OverflowTotal)
	}
}

func TestDRCViolationsTrackOverflow(t *testing.T) {
	nl, pl := placed(t, 900, 0.1, 0.92)
	res, _ := Route(nl, pl, DefaultOptions())
	if res.OverflowTotal == 0 && res.DRCViolations != 0 {
		t.Fatal("DRC violations without overflow")
	}
	if res.OverflowTotal > 50 && res.DRCViolations == 0 {
		t.Fatal("heavy overflow should produce DRC violations")
	}
}

func TestValidation(t *testing.T) {
	bad := []Options{
		{Iterations: -1, TrackUtil: 0.8},
		{Iterations: 2, TrackUtil: 0.1},
		{Iterations: 2, TrackUtil: 0.8, Expansion: 100},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
}

// sameSegs reports whether r's non-empty runs are exactly the reference
// route's segments, in order.
func sameSegs(r route, ref refRoute) bool {
	var got []segment
	for _, s := range r {
		if s.len > 0 {
			got = append(got, s)
		}
	}
	if len(got) != len(ref.segs) {
		return false
	}
	for i, s := range ref.segs {
		if got[i] != (segment{x: s.x, y: s.y, len: s.len, horiz: s.horiz}) {
			return false
		}
	}
	return true
}

// loadedGrid is a grid with pseudo-random usage straddling capacity, so
// costs mix the under- and over-capacity terms, and a reference grid
// sharing its usage.
func loadedGrid(bx, by, cap int) (*grid, *refGrid) {
	g := newGrid(bx, by, cap)
	rng := rand.New(rand.NewSource(5))
	for i := range g.hUse {
		g.hUse[i] = rng.Intn(2 * cap)
		g.vUse[i] = rng.Intn(2 * cap)
	}
	return g, &refGrid{bx: bx, by: by, hUse: g.hUse, vUse: g.vUse, cap: cap}
}

func TestLRouteGeometry(t *testing.T) {
	r := lRoute(0, 0, 3, 2, true)
	if r.length() != 5 {
		t.Fatalf("L route length = %d, want 5", r.length())
	}
	r = lRoute(2, 2, 2, 2, false)
	if r.length() != 0 {
		t.Fatalf("degenerate L route length = %d, want 0", r.length())
	}
	// Every L route between bins of a 5×5 grid has the reference's
	// segments, and its endpoint cost is bit-identical to the reference
	// route's cost.
	g, ref := loadedGrid(5, 5, 3)
	for _, w := range []float64{0, 1, 2.7} {
		for p := 0; p < 5*5*5*5; p++ {
			x1, y1, x2, y2 := p%5, p/5%5, p/25%5, p/125
			for _, hf := range []bool{true, false} {
				r := lRoute(x1, y1, x2, y2, hf)
				if !sameSegs(r, refLRoute(x1, y1, x2, y2, hf)) {
					t.Fatalf("lRoute(%d,%d,%d,%d,%v) = %+v, reference %+v", x1, y1, x2, y2, hf, r, refLRoute(x1, y1, x2, y2, hf))
				}
				if c, want := g.zCost(x1, y1, x2, y2, lBend(x2, y2, hf), hf, w), ref.cost(refLRoute(x1, y1, x2, y2, hf), w); c != want {
					t.Fatalf("L zCost(%d,%d,%d,%d,%v) = %v, reference cost %v", x1, y1, x2, y2, hf, c, want)
				}
			}
		}
	}
}

func TestZRouteGeometry(t *testing.T) {
	// 0,0 → 4,0 via column 2 should still have length >= manhattan.
	r := zRoute(0, 0, 4, 0, 2, true)
	if r.length() < 4 {
		t.Fatalf("Z route shorter than manhattan: %d", r.length())
	}
	r2 := zRoute(0, 0, 0, 4, 2, false)
	if r2.length() < 4 {
		t.Fatalf("vertical Z route shorter than manhattan: %d", r2.length())
	}
	// Every Z route between bins of a 5×5 grid, through every column or
	// row, has the reference's segments, and its endpoint cost is
	// bit-identical to the reference route's cost.
	g, ref := loadedGrid(5, 5, 3)
	for _, w := range []float64{0, 1, 2.7} {
		for p := 0; p < 5*5*5*5*5; p++ {
			x1, y1, x2, y2, m := p%5, p/5%5, p/25%5, p/125%5, p/625
			for _, hf := range []bool{true, false} {
				r := zRoute(x1, y1, x2, y2, m, hf)
				if !sameSegs(r, refZRoute(x1, y1, x2, y2, m, hf)) {
					t.Fatalf("zRoute(%d,%d,%d,%d,%d,%v) = %+v, reference %+v", x1, y1, x2, y2, m, hf, r, refZRoute(x1, y1, x2, y2, m, hf))
				}
				if c, want := g.zCost(x1, y1, x2, y2, m, hf, w), ref.cost(refZRoute(x1, y1, x2, y2, m, hf), w); c != want {
					t.Fatalf("zCost(%d,%d,%d,%d,%d,%v) = %v, reference cost %v", x1, y1, x2, y2, m, hf, c, want)
				}
			}
		}
	}
}

func TestGridApplyAndOverflow(t *testing.T) {
	g := newGrid(4, 4, 2)
	r := lRoute(0, 0, 3, 0, true)
	g.apply(&r, 1)
	g.apply(&r, 1)
	if g.overflow != 0 {
		t.Fatal("at capacity is not overflow")
	}
	g.apply(&r, 1)
	if g.overflow != 3 {
		t.Fatalf("overflow = %d, want 3 (three edges, one over each)", g.overflow)
	}
	if !g.crossesOverflow(&r) {
		t.Fatal("route should cross overflow")
	}
	g.apply(&r, -1)
	if g.overflow != 0 {
		t.Fatal("rip-up should clear overflow")
	}

	// The running count matches a full rescan through random rip-ups and
	// reroutes.
	rng := rand.New(rand.NewSource(9))
	var placed []route
	for i := 0; i < 400; i++ {
		if len(placed) > 0 && rng.Intn(3) == 0 {
			k := rng.Intn(len(placed))
			g.apply(&placed[k], -1)
			placed = append(placed[:k], placed[k+1:]...)
		} else {
			r := zRoute(rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(4), rng.Intn(2) == 0)
			g.apply(&r, 1)
			placed = append(placed, r)
		}
		want := 0
		for _, u := range append(append([]int(nil), g.hUse...), g.vUse...) {
			want += max(u-g.cap, 0)
		}
		if g.overflow != want {
			t.Fatalf("step %d: running overflow %d, rescan %d", i, g.overflow, want)
		}
	}
}

func TestCongestionWeightSpreadsRoutes(t *testing.T) {
	nl, pl := placed(t, 700, 0.2, 0.9)
	flat := DefaultOptions()
	flat.CongestionWeight = 0
	flat.Iterations = 0
	aware := DefaultOptions()
	aware.CongestionWeight = 4
	aware.Iterations = 0
	a, _ := Route(nl, pl, flat)
	b, _ := Route(nl, pl, aware)
	if b.MaxEdgeOverflow > a.MaxEdgeOverflow {
		t.Fatalf("congestion weight should not worsen max overflow: flat=%d aware=%d",
			a.MaxEdgeOverflow, b.MaxEdgeOverflow)
	}
}

// suitePlaced places every suite design at scale 0.25 with default
// placement options.
func suitePlaced(t testing.TB) ([]*netlist.Netlist, []*placer.Result) {
	t.Helper()
	nls, err := netlist.GenerateSuite(0.25)
	if err != nil {
		t.Fatal(err)
	}
	pls := make([]*placer.Result, len(nls))
	for i, nl := range nls {
		if pls[i], err = placer.Place(nl, placer.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	return nls, pls
}

// sameResult describes the first difference between a and b; floats are
// compared with ==.
func sameResult(a, b *Result) error {
	if len(a.NetLengthUM) != len(b.NetLengthUM) {
		return fmt.Errorf("NetLengthUM has %d entries, want %d", len(a.NetLengthUM), len(b.NetLengthUM))
	}
	for i := range a.NetLengthUM {
		if a.NetLengthUM[i] != b.NetLengthUM[i] {
			return fmt.Errorf("NetLengthUM[%d] = %v, want %v", i, a.NetLengthUM[i], b.NetLengthUM[i])
		}
	}
	sa, sb := *a, *b
	sa.NetLengthUM, sb.NetLengthUM = nil, nil
	if !reflect.DeepEqual(sa, sb) {
		return fmt.Errorf("got %+v, want %+v", sa, sb)
	}
	return nil
}

// TestRouteMatchesReference holds the router bit-identical to the
// reference router (router_ref_test.go) on every suite design under a
// sampled grid of options. Each option cycles through its values with a
// period coprime to the others', so the cases mix values instead of
// repeating a few combinations: Iterations 0 and 20 (and 1, 2), every
// Expansion 0..8, a
// TrackUtil low enough to force rip-up, and zero congestion weight and
// detour penalty. Most weights are not dyadic, so products round and a
// reassociated cost sum shows up as a changed route.
func TestRouteMatchesReference(t *testing.T) {
	nls, pls := suitePlaced(t)
	iters := []int{0, 20, 2, 1}
	trackUtil := []float64{0.21, 0.85, 0.3, 1.0, 0.5}
	congWeight := []float64{0, 1, 4.3, 0.7, 6, 2.9, 1.3}
	detour := []float64{0, 0.5, 3, 0.02, 1, 0.1, 2, 0.25, 0.75, 1.5, 0.05}
	const perDesign = 4
	rerouted := 0
	for d, nl := range nls {
		for k := 0; k < perDesign; k++ {
			i := d*perDesign + k
			opt := Options{
				Iterations:       iters[i%len(iters)],
				CongestionWeight: congWeight[i%len(congWeight)],
				DetourPenalty:    detour[i%len(detour)],
				TrackUtil:        trackUtil[i%len(trackUtil)],
				Expansion:        i % 9,
				Seed:             int64(i),
			}
			want, wantMap, err := refRouteWithMap(nl, pls[d], opt)
			if err != nil {
				t.Fatal(err)
			}
			got, gotMap, err := RouteWithMap(nl, pls[d], opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(got, want); err != nil {
				t.Fatalf("%s %+v: %v", nl.Name, opt, err)
			}
			if !reflect.DeepEqual(gotMap, wantMap) {
				t.Fatalf("%s %+v: congestion map differs from the reference", nl.Name, opt)
			}
			plain, err := Route(nl, pls[d], opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameResult(plain, want); err != nil {
				t.Fatalf("%s %+v: Route: %v", nl.Name, opt, err)
			}
			if want.DetouredNets > 0 {
				rerouted++
			}
		}
	}
	if rerouted < len(nls) {
		t.Fatalf("only %d cases took a Z detour; the sample must exercise rip-up", rerouted)
	}
}

// TestRouteAllocBudget pins Route's allocations to a constant: at most
// the tie RNG (2), the grid and its two usage slices (3), the connection
// slice (1) and the result with its net-length slice (2). Routes and
// candidates are values, so the count does not grow with the number of
// connections or rip-up iterations (the reference router makes ~4k
// allocations per initial pass on D7 and ~500k over 20 iterations).
func TestRouteAllocBudget(t *testing.T) {
	nls, pls := suitePlaced(t)
	const budget = 8
	for _, d := range []int{3, 6} { // D4 and D7: small and mid-size
		for _, iters := range []int{0, 20} {
			opt := DefaultOptions()
			opt.Iterations = iters
			opt.TrackUtil = 0.3 // force rip-up
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Route(nls[d], pls[d], opt); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > budget {
				t.Errorf("%s, %d iterations: %.0f allocs per Route, budget %d", nls[d].Name, iters, allocs, budget)
			}
		}
	}
}

// TestRouteConcurrent routes different designs from concurrent goroutines,
// as flow.RunMany and a multi-worker dataset build do, and requires each
// result to equal a serial run's. Run under -race it also guards against
// routing scratch state shared between calls.
func TestRouteConcurrent(t *testing.T) {
	nls, pls := suitePlaced(t)
	designs := []int{3, 4, 5, 7, 9, 10, 15} // the suite's smaller designs
	opt := DefaultOptions()
	opt.TrackUtil = 0.3
	serial := make([]*Result, len(designs))
	for i, d := range designs {
		var err error
		if serial[i], err = Route(nls[d], pls[d], opt); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, d := range designs {
			wg.Add(1)
			go func(i, d int) {
				defer wg.Done()
				res, err := Route(nls[d], pls[d], opt)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameResult(res, serial[i]); err != nil {
					t.Errorf("%s: concurrent route differs from serial: %v", nls[d].Name, err)
				}
			}(i, d)
		}
	}
	wg.Wait()
}
