package router

// This file is the reference router: the router as it stood before the
// fixed-size, allocation-free candidate search, kept verbatim apart from
// ref-prefixed names. TestRouteMatchesReference holds Route and
// RouteWithMap bit-identical to it.

import (
	"math"
	"math/rand"

	"insightalign/internal/netlist"
	"insightalign/internal/placer"
)

func refRouteWithMap(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, *CongestionMap, error) {
	res, g, err := refRouteImpl(nl, pl, opt)
	if err != nil {
		return nil, nil, err
	}
	m := &CongestionMap{BinsX: g.bx, BinsY: g.by,
		HUtil: make([]float64, g.bx*g.by), VUtil: make([]float64, g.bx*g.by)}
	for i, u := range g.hUse {
		m.HUtil[i] = float64(u) / float64(g.cap)
	}
	for i, u := range g.vUse {
		m.VUtil[i] = float64(u) / float64(g.cap)
	}
	return res, m, nil
}

// refGrid tracks horizontal and vertical edge usage between adjacent bins.
type refGrid struct {
	bx, by int
	// hUse[y*bx+x] is usage of the edge from bin (x,y) to (x+1,y).
	hUse []int
	// vUse[y*bx+x] is usage of the edge from bin (x,y) to (x,y+1).
	vUse []int
	cap  int
}

func newRefGrid(bx, by, cap int) *refGrid {
	return &refGrid{bx: bx, by: by, hUse: make([]int, bx*by), vUse: make([]int, bx*by), cap: cap}
}

// refSegment is one horizontal or vertical run of a route.
type refSegment struct {
	x, y, len int
	horiz     bool
}

// refRoute is the list of segments of one two-pin connection.
type refRoute struct {
	segs []refSegment
}

func (g *refGrid) apply(r refRoute, delta int) {
	for _, s := range r.segs {
		x, y := s.x, s.y
		for i := 0; i < s.len; i++ {
			if s.horiz {
				g.hUse[y*g.bx+x] += delta
				x++
			} else {
				g.vUse[y*g.bx+x] += delta
				y++
			}
		}
	}
}

// cost computes the congestion-aware cost of a route.
func (g *refGrid) cost(r refRoute, congWeight float64) float64 {
	c := 0.0
	for _, s := range r.segs {
		x, y := s.x, s.y
		for i := 0; i < s.len; i++ {
			var use int
			if s.horiz {
				use = g.hUse[y*g.bx+x]
				x++
			} else {
				use = g.vUse[y*g.bx+x]
				y++
			}
			c++
			if over := float64(use+1) - float64(g.cap); over > 0 {
				c += congWeight * over * over
			} else {
				c += congWeight * float64(use) / float64(g.cap) * 0.3
			}
		}
	}
	return c
}

// refLRoute builds one of the two L-shaped routes between bins.
func refLRoute(x1, y1, x2, y2 int, horizFirst bool) refRoute {
	var r refRoute
	addH := func(xa, xb, y int) {
		if xa == xb {
			return
		}
		if xa > xb {
			xa, xb = xb, xa
		}
		r.segs = append(r.segs, refSegment{x: xa, y: y, len: xb - xa, horiz: true})
	}
	addV := func(ya, yb, x int) {
		if ya == yb {
			return
		}
		if ya > yb {
			ya, yb = yb, ya
		}
		r.segs = append(r.segs, refSegment{x: x, y: ya, len: yb - ya, horiz: false})
	}
	if horizFirst {
		addH(x1, x2, y1)
		addV(y1, y2, x2)
	} else {
		addV(y1, y2, x1)
		addH(x1, x2, y2)
	}
	return r
}

// refZRoute builds a Z-shaped detour through intermediate column/row m.
func refZRoute(x1, y1, x2, y2, m int, horizFirst bool) refRoute {
	var r refRoute
	if horizFirst {
		// x1→m at y1, y1→y2 at m, m→x2 at y2.
		a := refLRoute(x1, y1, m, y2, true)
		b := refLRoute(m, y2, x2, y2, true)
		r.segs = append(a.segs, b.segs...)
	} else {
		a := refLRoute(x1, y1, x2, m, false)
		b := refLRoute(x2, m, x2, y2, false)
		r.segs = append(a.segs, b.segs...)
	}
	return r
}

func (r refRoute) length() int {
	n := 0
	for _, s := range r.segs {
		n += s.len
	}
	return n
}

// refConn is one driver→sink two-pin connection.
type refConn struct {
	driver, sink   int
	x1, y1, x2, y2 int
	r              refRoute
	detoured       bool
}

func refRouteImpl(nl *netlist.Netlist, pl *placer.Result, opt Options) (*Result, *refGrid, error) {
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
	g := newRefGrid(pl.BinsX, pl.BinsY, cap)

	// Build two-pin connections (star model per net).
	var conns []*refConn
	for id := range nl.Cells {
		for _, s := range nl.Cells[id].Fanouts {
			x1, y1 := pl.BinOf(pl.X[id], pl.Y[id])
			x2, y2 := pl.BinOf(pl.X[s], pl.Y[s])
			conns = append(conns, &refConn{driver: id, sink: s, x1: x1, y1: y1, x2: x2, y2: y2})
		}
	}

	// Initial pass: best of the two L-shapes.
	for _, c := range conns {
		a := refLRoute(c.x1, c.y1, c.x2, c.y2, true)
		b := refLRoute(c.x1, c.y1, c.x2, c.y2, false)
		ca := g.cost(a, opt.CongestionWeight)
		cb := g.cost(b, opt.CongestionWeight)
		if ca < cb || (ca == cb && rng.Intn(2) == 0) {
			c.r = a
		} else {
			c.r = b
		}
		g.apply(c.r, 1)
	}

	// Rip-up and reroute nets crossing overflowed edges.
	for it := 0; it < opt.Iterations; it++ {
		if g.totalOverflow() == 0 {
			break
		}
		for _, c := range conns {
			if !g.crossesOverflow(c.r) {
				continue
			}
			g.apply(c.r, -1)
			best := c.r
			bestCost := g.cost(c.r, opt.CongestionWeight)
			bestDetour := c.detoured
			try := func(r refRoute, detoured bool) {
				cost := g.cost(r, opt.CongestionWeight) +
					opt.DetourPenalty*float64(r.length()-refManhattan(c.x1, c.y1, c.x2, c.y2))
				if cost < bestCost {
					best, bestCost, bestDetour = r, cost, detoured
				}
			}
			try(refLRoute(c.x1, c.y1, c.x2, c.y2, true), false)
			try(refLRoute(c.x1, c.y1, c.x2, c.y2, false), false)
			lo, hi := refMinInt(c.x1, c.x2)-opt.Expansion, refMaxInt(c.x1, c.x2)+opt.Expansion
			for m := lo; m <= hi; m++ {
				if m < 0 || m >= g.bx || m == c.x1 || m == c.x2 {
					continue
				}
				try(refZRoute(c.x1, c.y1, c.x2, c.y2, m, true), true)
			}
			lo, hi = refMinInt(c.y1, c.y2)-opt.Expansion, refMaxInt(c.y1, c.y2)+opt.Expansion
			for m := lo; m <= hi; m++ {
				if m < 0 || m >= g.by || m == c.y1 || m == c.y2 {
					continue
				}
				try(refZRoute(c.x1, c.y1, c.x2, c.y2, m, false), true)
			}
			c.r = best
			c.detoured = bestDetour
			g.apply(c.r, 1)
		}
	}

	// Collect results.
	res := &Result{NetLengthUM: make([]float64, len(nl.Cells))}
	binLen := (pl.BinW + pl.BinH) / 2
	for _, c := range conns {
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

func (g *refGrid) totalOverflow() int {
	t := 0
	for _, u := range g.hUse {
		if u > g.cap {
			t += u - g.cap
		}
	}
	for _, u := range g.vUse {
		if u > g.cap {
			t += u - g.cap
		}
	}
	return t
}

func (g *refGrid) crossesOverflow(r refRoute) bool {
	for _, s := range r.segs {
		x, y := s.x, s.y
		for i := 0; i < s.len; i++ {
			if s.horiz {
				if g.hUse[y*g.bx+x] > g.cap {
					return true
				}
				x++
			} else {
				if g.vUse[y*g.bx+x] > g.cap {
					return true
				}
				y++
			}
		}
	}
	return false
}

func refManhattan(x1, y1, x2, y2 int) int {
	return refAbsInt(x1-x2) + refAbsInt(y1-y2)
}

func refAbsInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func refMinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func refMaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
