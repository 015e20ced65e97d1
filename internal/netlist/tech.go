// Package netlist models gate-level netlists and generates the synthetic
// benchmark suite that stands in for the paper's 17 proprietary industrial
// designs. Designs are seeded random DAGs of standard cells and flip-flops
// with controllable traits — size, technology node, clock tightness,
// sequential fraction, VT mix, placement locality, and hold risk — so the
// downstream flow engines respond to recipes in design-dependent ways that
// the insight analyzers can observe.
package netlist

import "fmt"

// Tech describes a technology node. Values are stylized but ordered
// realistically across nodes (smaller node → faster gates, higher leakage
// density, tighter routing pitch).
type Tech struct {
	Name string
	// Node is the process node in nanometres.
	Node int
	// GateDelayPS is the fanout-of-1 inverter delay in picoseconds.
	GateDelayPS float64
	// WireRPerUM and WireCPerFFPerUM give per-micron wire resistance (ohm)
	// and capacitance (fF) for Elmore-style delay estimation.
	WireRPerUM    float64
	WireCPerFFUM  float64
	InputCapFF    float64 // input capacitance of a unit-drive gate pin
	CellHeightUM  float64
	CellWidthUM   float64 // width of a unit-drive 2-input gate
	VDD           float64
	SetupPS       float64
	HoldPS        float64
	ClkQPS        float64
	LeakageHVTnW  float64 // leakage per unit-drive gate by VT class
	LeakageSVTnW  float64
	LeakageLVTnW  float64
	RoutingTracks int // routing tracks per bin edge per layer-pair
}

// Standard technology nodes spanning the paper's 45 nm to sub-10 nm range.
var (
	TechN45 = Tech{
		Name: "N45", Node: 45,
		GateDelayPS: 28, WireRPerUM: 0.8, WireCPerFFUM: 0.20, InputCapFF: 1.8,
		CellHeightUM: 1.4, CellWidthUM: 0.9, VDD: 1.1,
		SetupPS: 45, HoldPS: 12, ClkQPS: 80,
		LeakageHVTnW: 50, LeakageSVTnW: 140, LeakageLVTnW: 400,
		RoutingTracks: 22,
	}
	TechN28 = Tech{
		Name: "N28", Node: 28,
		GateDelayPS: 16, WireRPerUM: 1.6, WireCPerFFUM: 0.18, InputCapFF: 1.1,
		CellHeightUM: 0.9, CellWidthUM: 0.55, VDD: 0.95,
		SetupPS: 30, HoldPS: 9, ClkQPS: 52,
		LeakageHVTnW: 80, LeakageSVTnW: 240, LeakageLVTnW: 720,
		RoutingTracks: 20,
	}
	TechN16 = Tech{
		Name: "N16", Node: 16,
		GateDelayPS: 10, WireRPerUM: 3.4, WireCPerFFUM: 0.16, InputCapFF: 0.7,
		CellHeightUM: 0.57, CellWidthUM: 0.34, VDD: 0.8,
		SetupPS: 20, HoldPS: 7, ClkQPS: 34,
		LeakageHVTnW: 130, LeakageSVTnW: 400, LeakageLVTnW: 1200,
		RoutingTracks: 18,
	}
	TechN7 = Tech{
		Name: "N7", Node: 7,
		GateDelayPS: 6, WireRPerUM: 7.5, WireCPerFFUM: 0.14, InputCapFF: 0.45,
		CellHeightUM: 0.27, CellWidthUM: 0.18, VDD: 0.7,
		SetupPS: 13, HoldPS: 5, ClkQPS: 22,
		LeakageHVTnW: 200, LeakageSVTnW: 640, LeakageLVTnW: 1900,
		RoutingTracks: 16,
	}
)

// TechByName looks up a tech node by its name.
func TechByName(name string) (Tech, error) {
	for _, t := range []Tech{TechN45, TechN28, TechN16, TechN7} {
		if t.Name == name {
			return t, nil
		}
	}
	return Tech{}, fmt.Errorf("netlist: unknown tech node %q", name)
}

// CellKind enumerates the standard cell types in the synthetic library.
type CellKind int

// Cell kinds. Input/Output are port pseudo-cells; DFF is the sole
// sequential element.
const (
	Input CellKind = iota
	Output
	Inv
	Buf
	Nand2
	Nor2
	And2
	Or2
	Xor2
	Aoi22
	Mux2
	DFF
	numKinds
)

var kindNames = [...]string{"IN", "OUT", "INV", "BUF", "NAND2", "NOR2", "AND2",
	"OR2", "XOR2", "AOI22", "MUX2", "DFF"}

func (k CellKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("CellKind(%d)", int(k))
}

// kindInfo gives per-kind library characteristics relative to a unit
// inverter: logical effort-style delay factor, area factor, pin count, a
// leakage factor and a switching-activity transfer factor used by power
// propagation.
type kindInfo struct {
	delayFactor    float64
	areaFactor     float64
	fanins         int
	leakFactor     float64
	activityFactor float64 // output activity as a fraction of mean input activity
	internalCapFF  float64 // internal switched cap factor
}

// kinds is indexed by CellKind; info maps kinds outside the table to the
// zero kindInfo.
var kinds = [numKinds]kindInfo{
	Input:  {0, 0, 0, 0, 1.0, 0},
	Output: {0, 0, 1, 0, 1.0, 0},
	Inv:    {1.0, 1.0, 1, 1.0, 1.0, 0.5},
	Buf:    {1.8, 1.6, 1, 1.3, 1.0, 0.8},
	Nand2:  {1.4, 1.4, 2, 1.5, 0.75, 0.7},
	Nor2:   {1.7, 1.5, 2, 1.5, 0.75, 0.7},
	And2:   {2.0, 1.8, 2, 1.8, 0.6, 0.9},
	Or2:    {2.1, 1.8, 2, 1.8, 0.6, 0.9},
	Xor2:   {2.8, 2.6, 2, 2.4, 1.1, 1.3},
	Aoi22:  {2.4, 2.2, 4, 2.2, 0.55, 1.1},
	Mux2:   {2.5, 2.4, 3, 2.2, 0.8, 1.2},
	DFF:    {0, 5.0, 1, 4.0, 0.5, 3.0},
}

// info returns the library characteristics of k, or the zero kindInfo
// for a kind outside the table.
func (k CellKind) info() kindInfo {
	if k < 0 || k >= numKinds {
		return kindInfo{}
	}
	return kinds[k]
}

// DelayFactor returns the logical-effort delay factor of a kind.
func (k CellKind) DelayFactor() float64 { return k.info().delayFactor }

// AreaFactor returns the layout area factor relative to a unit inverter.
func (k CellKind) AreaFactor() float64 { return k.info().areaFactor }

// FaninCount returns the number of input pins.
func (k CellKind) FaninCount() int { return k.info().fanins }

// LeakFactor returns the leakage factor relative to a unit inverter.
func (k CellKind) LeakFactor() float64 { return k.info().leakFactor }

// ActivityFactor returns the switching-activity transfer factor.
func (k CellKind) ActivityFactor() float64 { return k.info().activityFactor }

// InternalCapFactor returns the internally switched capacitance factor.
func (k CellKind) InternalCapFactor() float64 { return k.info().internalCapFF }

// IsSequential reports whether the kind is a clocked element.
func (k CellKind) IsSequential() bool { return k == DFF }

// IsPort reports whether the kind is a design port pseudo-cell.
func (k CellKind) IsPort() bool { return k == Input || k == Output }

// VT is the threshold-voltage class of a cell.
type VT int

// Threshold voltage classes: high (slow, low leakage) to low (fast, leaky).
const (
	HVT VT = iota
	SVT
	LVT
)

func (v VT) String() string { return [...]string{"HVT", "SVT", "LVT"}[v] }

// Leakage returns the leakage in nW of a unit-drive cell of class v in tech t.
func (v VT) Leakage(t Tech) float64 {
	switch v {
	case HVT:
		return t.LeakageHVTnW
	case LVT:
		return t.LeakageLVTnW
	default:
		return t.LeakageSVTnW
	}
}

// DelayFactor returns the delay multiplier of VT class v (HVT slow, LVT fast).
func (v VT) DelayFactor() float64 {
	switch v {
	case HVT:
		return 1.18
	case LVT:
		return 0.88
	default:
		return 1.0
	}
}
