package noc

import "repro/internal/registry"

// RoutingAlgorithm decides the output port for a packet at a router.
// Implementations must be deadlock-free on a 2D mesh.
type RoutingAlgorithm interface {
	// Route returns the output direction for a packet at router cur headed
	// to dst. free reports, for each candidate direction, whether the
	// downstream buffer currently has room — adaptive algorithms may use
	// it, deterministic ones ignore it.
	Route(m Mesh, cur, dst NodeID, free func(Direction) bool) Direction
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
}

// XYRouting is the Table I default: route fully in X, then in Y.
// It is deterministic, minimal, and deadlock-free.
type XYRouting struct{}

var _ RoutingAlgorithm = XYRouting{}

// Name implements RoutingAlgorithm.
func (XYRouting) Name() string { return "xy" }

// Route implements RoutingAlgorithm.
func (XYRouting) Route(m Mesh, cur, dst NodeID, _ func(Direction) bool) Direction {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cc.X < cd.X:
		return East
	case cc.X > cd.X:
		return West
	case cc.Y < cd.Y:
		return South
	case cc.Y > cd.Y:
		return North
	default:
		return Local
	}
}

// YXRouting routes fully in Y first, then in X — the mirror of XY. On its
// own VC class it is deadlock-free, and because an XY and a YX path between
// the same pair share only their endpoints (when src and dst differ in both
// coordinates), the pair forms the route-diverse channel the dual-path
// request-verification defense is built on.
type YXRouting struct{}

var _ RoutingAlgorithm = YXRouting{}

// Name implements RoutingAlgorithm.
func (YXRouting) Name() string { return "yx" }

// Route implements RoutingAlgorithm.
func (YXRouting) Route(m Mesh, cur, dst NodeID, _ func(Direction) bool) Direction {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cc.Y < cd.Y:
		return South
	case cc.Y > cd.Y:
		return North
	case cc.X < cd.X:
		return East
	case cc.X > cd.X:
		return West
	default:
		return Local
	}
}

// WestFirstRouting is the minimal adaptive west-first turn-model router used
// as the "adaptive routing" ablation of Section V-A. Westward hops are taken
// first and exclusively; among the remaining permitted minimal directions it
// prefers one with downstream buffer space.
type WestFirstRouting struct{}

var _ RoutingAlgorithm = WestFirstRouting{}

// Name implements RoutingAlgorithm.
func (WestFirstRouting) Name() string { return "west-first" }

// Route implements RoutingAlgorithm.
func (WestFirstRouting) Route(m Mesh, cur, dst NodeID, free func(Direction) bool) Direction {
	cc, cd := m.Coord(cur), m.Coord(dst)
	if cc == cd {
		return Local
	}
	// West-first: if any westward progress is required it must happen
	// before any other turn.
	if cc.X > cd.X {
		return West
	}
	// At most two minimal productive directions remain, so a fixed array
	// holds them: routing a packet must not allocate.
	var candidates [2]Direction
	k := 0
	if cc.X < cd.X {
		candidates[k] = East
		k++
	}
	if cc.Y < cd.Y {
		candidates[k] = South
		k++
	} else if cc.Y > cd.Y {
		candidates[k] = North
		k++
	}
	if k == 1 {
		return candidates[0]
	}
	// Adaptive choice between the two minimal productive directions:
	// prefer a direction whose downstream has space.
	if free != nil {
		for _, d := range candidates {
			if free(d) {
				return d
			}
		}
	}
	return candidates[0]
}

// TorusRouting is minimal dimension-order routing for wraparound tori:
// fully in X, then in Y, always along the shorter way around each ring
// (ties go to the positive — east/south — direction). On its own it would
// deadlock on the ring channels; the network breaks those cycles with
// dateline virtual-channel management (see WrapRouting), which is why the
// algorithm carries the marker method and Config.Validate demands at
// least two virtual channels per traffic class for it.
type TorusRouting struct{}

var _ RoutingAlgorithm = TorusRouting{}
var _ WrapRouting = TorusRouting{}

// Name implements RoutingAlgorithm.
func (TorusRouting) Name() string { return "torus-xy" }

// UsesWraparound implements WrapRouting.
func (TorusRouting) UsesWraparound() {}

// Route implements RoutingAlgorithm.
func (TorusRouting) Route(m Mesh, cur, dst NodeID, _ func(Direction) bool) Direction {
	cc, cd := m.Coord(cur), m.Coord(dst)
	if d := torusStep(cc.X, cd.X, m.Width, East, West); d != Local {
		return d
	}
	return torusStep(cc.Y, cd.Y, m.Height, South, North)
}

// torusStep picks the minimal ring direction along one dimension, or Local
// when the coordinate already matches. Ties (opposite ways equally long)
// break toward the positive direction, matching Mesh.PathXY on wrapped
// meshes so the analytic path model traces the same routers the router
// pipeline uses.
func torusStep(cur, dst, k int, pos, neg Direction) Direction {
	if cur == dst {
		return Local
	}
	fwd := ((dst - cur) + k) % k
	if fwd <= k-fwd {
		return pos
	}
	return neg
}

// WrapRouting marks routing algorithms that traverse wraparound links.
// The network enables dateline virtual-channel management for the traffic
// classes routed by a WrapRouting: within the class's VC range the lower
// half carries packets that have not yet crossed the current dimension's
// wraparound link and the upper half those that have, which breaks the
// channel-dependency cycles of the rings and keeps the torus
// deadlock-free.
type WrapRouting interface {
	RoutingAlgorithm
	// UsesWraparound is the marker method.
	UsesWraparound()
}

// Routings is the routing-algorithm plugin registry ("xy", "yx",
// "west-first", "torus-xy", with "westfirst" and "adaptive" as aliases).
var Routings = registry.New[RoutingAlgorithm]("noc", "routing algorithm")

func init() {
	Routings.Register("xy", func() RoutingAlgorithm { return XYRouting{} })
	Routings.Register("yx", func() RoutingAlgorithm { return YXRouting{} })
	Routings.Register("west-first", func() RoutingAlgorithm { return WestFirstRouting{} })
	Routings.Register("torus-xy", func() RoutingAlgorithm { return TorusRouting{} })
	Routings.Alias("westfirst", "west-first")
	Routings.Alias("adaptive", "west-first")
}

// RoutingByName returns the named algorithm, for CLI flag parsing.
func RoutingByName(name string) (RoutingAlgorithm, error) { return Routings.Lookup(name) }
