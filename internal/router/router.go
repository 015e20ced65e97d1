// Package router implements bin-grid global routing: every net is routed
// driver→sink with an L-shape chosen by congestion cost, followed by
// rip-up-and-reroute iterations that detour nets through Z-shapes around
// overflowed edges. Residual overflow is converted into a DRC-violation
// estimate, and per-net routed lengths feed timing and power.
package router

import (
	"fmt"
	"math"
	"math/rand"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

// Options are the routing knobs exposed to flow recipes (Table II: "Adjust
// knobs of routing congestion" and "Adjust global routing hyperparameters").
type Options struct {
	// Iterations is the number of rip-up-and-reroute passes after the
	// initial routing.
	Iterations int
	// CongestionWeight scales how strongly edge usage repels new routes.
	CongestionWeight float64
	// DetourPenalty in cost units per bin discourages long Z detours.
	DetourPenalty float64
	// TrackUtil in (0,1] derates nominal edge capacity (router headroom).
	TrackUtil float64
	// Expansion widens the detour search window by this many bins.
	Expansion int
	// Seed drives tie-breaking.
	Seed int64
}

// DefaultOptions returns a balanced flow default.
func DefaultOptions() Options {
	return Options{Iterations: 2, CongestionWeight: 1.0, DetourPenalty: 0.5, TrackUtil: 0.85, Expansion: 2}
}

// Validate checks option ranges.
func (o Options) Validate() error {
	if o.Iterations < 0 || o.Iterations > 20 {
		return fmt.Errorf("router: Iterations %d out of [0,20]", o.Iterations)
	}
	if o.TrackUtil <= 0.2 || o.TrackUtil > 1.0 {
		return fmt.Errorf("router: TrackUtil %g out of (0.2,1.0]", o.TrackUtil)
	}
	if o.Expansion < 0 || o.Expansion > 8 {
		return fmt.Errorf("router: Expansion %d out of [0,8]", o.Expansion)
	}
	return nil
}

// Result is a completed global route.
type Result struct {
	// NetLengthUM is the routed length of the net driven by each cell ID
	// (0 for cells that drive nothing).
	NetLengthUM []float64
	// TotalWirelengthUM is the sum of all routed net lengths.
	TotalWirelengthUM float64
	// OverflowTotal is the summed capacity excess over all edges after
	// the final iteration.
	OverflowTotal int
	// MaxEdgeOverflow is the worst single-edge excess.
	MaxEdgeOverflow int
	// OverflowedEdgeFrac is the fraction of grid edges over capacity.
	OverflowedEdgeFrac float64
	// DRCViolations estimates post-detail-route violations from residual
	// congestion.
	DRCViolations int
	// DetouredNets counts nets that took a Z-detour.
	DetouredNets int
	// AvgEdgeUtil is mean edge usage / capacity.
	AvgEdgeUtil float64
}

// grid tracks horizontal and vertical edge usage between adjacent bins.
type grid struct {
	bx, by int
	// hUse[y*bx+x] is usage of the edge from bin (x,y) to (x+1,y).
	hUse []int
	// vUse[y*bx+x] is usage of the edge from bin (x,y) to (x,y+1).
	vUse []int
	cap  int
	// overflow is the summed capacity excess over all edges, kept current
	// by apply so rip-up never rescans the grid.
	overflow int
}

func newGrid(bx, by, cap int) *grid {
	return &grid{bx: bx, by: by, hUse: make([]int, bx*by), vUse: make([]int, bx*by), cap: cap}
}

// segment is one horizontal or vertical run of a route, starting at its
// lowest-coordinate bin.
type segment struct {
	x, y, len int
	horiz     bool
}

// hSeg is the horizontal run between columns xa and xb on row y.
func hSeg(xa, xb, y int) segment {
	return segment{x: min(xa, xb), y: y, len: absInt(xb - xa), horiz: true}
}

// vSeg is the vertical run between rows ya and yb in column x.
func vSeg(ya, yb, x int) segment {
	return segment{x: x, y: min(ya, yb), len: absInt(yb - ya)}
}

// edges returns the usage slice holding s's edges, the index of its first
// edge and the index step between consecutive edges.
func (g *grid) edges(s segment) (use []int, i, step int) {
	if s.horiz {
		return g.hUse, s.y*g.bx + s.x, 1
	}
	return g.vUse, s.y*g.bx + s.x, g.bx
}

// route is the path of one two-pin connection: three runs, some of them
// empty (an L route has at most two non-empty runs). It is a fixed-size
// value so that routing allocates nothing per connection or candidate.
type route [3]segment

func (r *route) length() int {
	return r[0].len + r[1].len + r[2].len
}

// lRoute builds one of the two L-shaped routes between bins: the route
// whose middle run lies on the sink's column (horizFirst) or row, so that
// its last run is empty.
func lRoute(x1, y1, x2, y2 int, horizFirst bool) route {
	return zRoute(x1, y1, x2, y2, lBend(x2, y2, horizFirst), horizFirst)
}

// lBend is the middle column (horizFirst) or row of an L route to (x2, y2).
func lBend(x2, y2 int, horizFirst bool) int {
	if horizFirst {
		return x2
	}
	return y2
}

// zRoute builds the route through intermediate column m (horizFirst) or
// row m: a Z-shaped detour, or an L route when m is lBend.
func zRoute(x1, y1, x2, y2, m int, horizFirst bool) route {
	if horizFirst {
		return route{hSeg(x1, m, y1), vSeg(y1, y2, m), hSeg(m, x2, y2)}
	}
	return route{vSeg(y1, m, x1), hSeg(x1, x2, m), vSeg(m, y2, x2)}
}

func (g *grid) apply(r *route, delta int) {
	for _, s := range r {
		use, i, step := g.edges(s)
		for k := 0; k < s.len; k++ {
			g.overflow -= max(use[i]-g.cap, 0)
			use[i] += delta
			g.overflow += max(use[i]-g.cap, 0)
			i += step
		}
	}
}

// segCost adds the congestion-aware cost of s's edges, lowest first, to
// the running cost c. Every route cost is this one running sum taken in
// segment order, so a candidate costed from its endpoints (zCost) is
// bit-identical to the cost of the materialised route.
func (g *grid) segCost(c float64, s segment, congWeight float64) float64 {
	use, i, step := g.edges(s)
	for k := 0; k < s.len; k++ {
		u := use[i]
		i += step
		c++
		if over := float64(u+1) - float64(g.cap); over > 0 {
			c += congWeight * over * over
		} else {
			c += congWeight * float64(u) / float64(g.cap) * 0.3
		}
	}
	return c
}

// cost computes the congestion-aware cost of a route.
func (g *grid) cost(r *route, congWeight float64) float64 {
	c := 0.0
	for _, s := range r {
		c = g.segCost(c, s, congWeight)
	}
	return c
}

// zCost is g.cost of zRoute(x1, y1, x2, y2, m, horizFirst), without
// building it.
func (g *grid) zCost(x1, y1, x2, y2, m int, horizFirst bool, w float64) float64 {
	if horizFirst {
		c := g.segCost(0, hSeg(x1, m, y1), w)
		c = g.segCost(c, vSeg(y1, y2, m), w)
		return g.segCost(c, hSeg(m, x2, y2), w)
	}
	c := g.segCost(0, vSeg(y1, m, x1), w)
	c = g.segCost(c, hSeg(x1, x2, m), w)
	return g.segCost(c, vSeg(m, y2, x2), w)
}

// conn is one driver→sink two-pin connection.
type conn struct {
	driver, sink   int
	x1, y1, x2, y2 int
	r              route
	detoured       bool
}

// reroute replaces c's route (already ripped up from g) with the cheapest
// of: the route itself, the two L routes, and every Z route through a
// column or row of the bounding box widened by opt.Expansion. Detours pay
// opt.DetourPenalty per bin beyond the Manhattan length; the incumbent is
// costed without it. Only the winner is materialised into c.
func (c *conn) reroute(g *grid, opt Options) {
	w := opt.CongestionWeight
	x1, y1, x2, y2 := c.x1, c.y1, c.x2, c.y2
	md := manhattan(x1, y1, x2, y2)
	// Only a strictly cheaper candidate replaces the best so far, so ties
	// keep the earlier one.
	bestCost, bestHF, bestM, moved := g.cost(&c.r, w), false, 0, false
	offer := func(hf bool, m, length int) {
		cost := g.zCost(x1, y1, x2, y2, m, hf, w) + opt.DetourPenalty*float64(length-md)
		if cost < bestCost {
			bestCost, bestHF, bestM, moved = cost, hf, m, true
		}
	}
	for _, hf := range [2]bool{true, false} {
		offer(hf, lBend(x2, y2, hf), md)
	}
	for m := min(x1, x2) - opt.Expansion; m <= max(x1, x2)+opt.Expansion; m++ {
		if m < 0 || m >= g.bx || m == x1 || m == x2 {
			continue
		}
		offer(true, m, absInt(x1-m)+absInt(y1-y2)+absInt(m-x2))
	}
	for m := min(y1, y2) - opt.Expansion; m <= max(y1, y2)+opt.Expansion; m++ {
		if m < 0 || m >= g.by || m == y1 || m == y2 {
			continue
		}
		offer(false, m, absInt(y1-m)+absInt(x1-x2)+absInt(m-y2))
	}
	if moved {
		c.r = zRoute(x1, y1, x2, y2, bestM, bestHF)
		c.detoured = bestM != lBend(x2, y2, bestHF)
	}
}

// Route globally routes all signal nets of nl at the placement pl.
func Route(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, error) {
	res, _, err := routeImpl(nl, pl, opt)
	return res, err
}

// RouteWithMap routes and additionally returns the per-edge congestion map
// for visualization.
func RouteWithMap(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, *CongestionMap, error) {
	res, g, err := routeImpl(nl, pl, opt)
	if err != nil {
		return nil, nil, err
	}
	return res, g.toMap(), nil
}

func routeImpl(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, *grid, error) {
	if err := opt.Validate(); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	tech := nl.Tech

	// Edge capacity: tracks per bin edge scaled by bin height in routing
	// pitches and derated by TrackUtil.
	pitches := pl.BinH / (tech.CellHeightUM / 2)
	cap := int(float64(tech.RoutingTracks) * opt.TrackUtil * pitches / 10)
	if cap < 4 {
		cap = 4
	}
	g := newGrid(pl.BinsX, pl.BinsY, cap)

	// Build two-pin connections (star model per net).
	n := 0
	for id := range nl.Cells {
		n += len(nl.Cells[id].Fanouts)
	}
	conns := make([]conn, 0, n)
	for id := range nl.Cells {
		x1, y1 := pl.BinOf(pl.X[id], pl.Y[id])
		for _, s := range nl.Cells[id].Fanouts {
			x2, y2 := pl.BinOf(pl.X[s], pl.Y[s])
			conns = append(conns, conn{driver: id, sink: s, x1: x1, y1: y1, x2: x2, y2: y2})
		}
	}

	// Initial pass: best of the two L-shapes (bent at the sink's column or
	// row), exact ties broken by the seed.
	for i := range conns {
		c := &conns[i]
		ca := g.zCost(c.x1, c.y1, c.x2, c.y2, c.x2, true, opt.CongestionWeight)
		cb := g.zCost(c.x1, c.y1, c.x2, c.y2, c.y2, false, opt.CongestionWeight)
		c.r = lRoute(c.x1, c.y1, c.x2, c.y2, ca < cb || (ca == cb && rng.Intn(2) == 0))
		g.apply(&c.r, 1)
	}

	// Rip-up and reroute nets crossing overflowed edges.
	for it := 0; it < opt.Iterations && g.overflow > 0; it++ {
		for i := range conns {
			c := &conns[i]
			if !g.crossesOverflow(&c.r) {
				continue
			}
			g.apply(&c.r, -1)
			c.reroute(g, opt)
			g.apply(&c.r, 1)
		}
	}

	// Collect results.
	res := &Result{NetLengthUM: make([]float64, len(nl.Cells))}
	binLen := (pl.BinW + pl.BinH) / 2
	for i := range conns {
		c := &conns[i]
		l := float64(c.r.length()) * binLen
		if c.r.length() == 0 {
			// Same-bin connection: use the intra-bin Manhattan distance.
			l = math.Abs(pl.X[c.driver]-pl.X[c.sink]) + math.Abs(pl.Y[c.driver]-pl.Y[c.sink])
		}
		res.NetLengthUM[c.driver] += l
		res.TotalWirelengthUM += l
		if c.detoured {
			res.DetouredNets++
		}
	}
	totalUse, edges := 0, 0
	for _, dir := range [2][]int{g.hUse, g.vUse} {
		for _, use := range dir {
			edges++
			totalUse += use
			if over := use - g.cap; over > 0 {
				res.OverflowTotal += over
				if over > res.MaxEdgeOverflow {
					res.MaxEdgeOverflow = over
				}
				res.OverflowedEdgeFrac++
			}
		}
	}
	res.OverflowedEdgeFrac /= float64(edges)
	res.AvgEdgeUtil = float64(totalUse) / float64(edges) / float64(g.cap)
	// Residual overflow becomes detail-route DRC violations; clustering of
	// overflow (max edge) makes it superlinearly worse.
	res.DRCViolations = res.OverflowTotal/3 + res.MaxEdgeOverflow*res.MaxEdgeOverflow/8
	return res, g, nil
}

func (g *grid) crossesOverflow(r *route) bool {
	for _, s := range r {
		use, i, step := g.edges(s)
		for k := 0; k < s.len; k++ {
			if use[i] > g.cap {
				return true
			}
			i += step
		}
	}
	return false
}

func manhattan(x1, y1, x2, y2 int) int {
	return absInt(x1-x2) + absInt(y1-y2)
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
