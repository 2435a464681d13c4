// Package clocksync implements Loki's off-line clock synchronization
// (thesis §2.5, after Henke [9]).
//
// For a reference machine r and a remote machine i, the thesis assumes
// linear clock drift, so local readings are related by
//
//	C_i(t) = alpha + beta*C_r(t)                             (Eqn. 2.1)
//
// Synchronization messages are exchanged in mini-phases before and after
// each experiment. Every message bounds (alpha, beta): a message sent from
// r at C_r-time x and received at i at C_i-time y must have positive delay,
// hence y > alpha + beta*x; a message sent from i at C_i-time y and received
// at r at C_r-time x must likewise have y < alpha + beta*x. Intersecting all
// half-planes yields a convex feasible polygon; the extreme values of alpha
// and beta over that polygon are the bounds [alpha-, alpha+] and
// [beta-, beta+]. Unlike confidence intervals, the true values always lie
// within these bounds (given the positive-delay and linear-drift
// assumptions). Only points on the lower convex hull of the r→i set and the
// upper convex hull of the i→r set can be binding, which keeps the
// enumeration cheap.
package clocksync

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/vclock"
)

// Direction says which way a synchronization message travelled.
type Direction int

// Directions.
const (
	// RefToRemote: sent by the reference machine, received by the remote.
	RefToRemote Direction = iota + 1
	// RemoteToRef: sent by the remote machine, received by the reference.
	RemoteToRef
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case RefToRemote:
		return "ref->remote"
	case RemoteToRef:
		return "remote->ref"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Sample is one timestamped synchronization message between the reference
// machine and one remote machine. Ref is the reading of the reference
// machine's clock (send time for RefToRemote, receive time for
// RemoteToRef); Remote is the reading of the remote machine's clock
// (receive time for RefToRemote, send time for RemoteToRef).
type Sample struct {
	Dir    Direction
	Ref    vclock.Ticks
	Remote vclock.Ticks
}

// Bounds are the estimated intervals for alpha and beta of Eqn. 2.1. The
// true (alpha, beta) lie jointly inside the feasible polygon, which is a
// subset of the box [AlphaLo,AlphaHi] x [BetaLo,BetaHi]; using the box for
// projection is conservative, which is the direction Loki's analysis phase
// needs (§2.5: experiments are discarded unless *provably* correct).
type Bounds struct {
	AlphaLo, AlphaHi float64
	BetaLo, BetaHi   float64
}

// AlphaWidth returns AlphaHi-AlphaLo, the offset uncertainty in nanoseconds.
func (b Bounds) AlphaWidth() float64 { return b.AlphaHi - b.AlphaLo }

// BetaWidth returns BetaHi-BetaLo, the drift-rate uncertainty.
func (b Bounds) BetaWidth() float64 { return b.BetaHi - b.BetaLo }

// Identity is the exact bounds of a clock relative to itself.
func Identity() Bounds { return Bounds{AlphaLo: 0, AlphaHi: 0, BetaLo: 1, BetaHi: 1} }

// Project maps a remote-clock reading onto the reference timeline,
// returning the conservative interval [lo, hi] that must contain the true
// reference time (thesis §2.5):
//
//	C_r(T) = (C_i(T) - alpha) / beta
//
// evaluated over all corners of the bounds box.
func (b Bounds) Project(v vclock.Ticks) (lo, hi vclock.Ticks) {
	first := true
	var fLo, fHi float64
	for _, alpha := range []float64{b.AlphaLo, b.AlphaHi} {
		for _, beta := range []float64{b.BetaLo, b.BetaHi} {
			if beta <= 0 {
				continue
			}
			x := (float64(v) - alpha) / beta
			if first {
				fLo, fHi, first = x, x, false
				continue
			}
			if x < fLo {
				fLo = x
			}
			if x > fHi {
				fHi = x
			}
		}
	}
	if first {
		// Degenerate beta bounds; fall back to the raw reading.
		return v, v
	}
	return vclock.Ticks(math.Floor(fLo)), vclock.Ticks(math.Ceil(fHi))
}

// Errors returned by Estimate.
var (
	// ErrTooFewSamples means at least one message in each direction is
	// required to bound alpha at all.
	ErrTooFewSamples = errors.New("clocksync: need at least one sample in each direction")
	// ErrUnbounded means the sample geometry leaves alpha or beta
	// unbounded (e.g. all messages at the same reference time). Sending
	// sync mini-phases both before and after the experiment prevents this.
	ErrUnbounded = errors.New("clocksync: alpha/beta unbounded; widen the sync phases")
	// ErrInfeasible means no (alpha, beta) satisfies all constraints,
	// which indicates violated assumptions: nonlinear drift, negative
	// delays (bad timestamps), or mislabelled directions.
	ErrInfeasible = errors.New("clocksync: constraints are infeasible; timestamps inconsistent")
)

type point struct{ x, y float64 }

// constraint represents y-bound lines: for kind=upper, alpha + beta*x <= y
// (from RefToRemote); for kind=lower, alpha + beta*x >= y (from RemoteToRef).
type constraint struct {
	x, y  float64
	upper bool
}

// Estimator computes Estimate and EstimateAll, keeping its scratch — the
// samples, the two point sets, their hulls, the constraints — for the next
// call, so a goroutine fitting one experiment after another allocates only
// what it returns. The zero value is ready; an Estimator is not safe for
// concurrent use.
type Estimator struct {
	samples      []Sample
	above, below []point
	points       []point // a hull's sorted input, then the probe's points
	lower, upper []point
	cons         []constraint
	hosts        []string
}

// Estimate computes bounds on (alpha, beta) from timestamped sync messages.
//
// The algorithm: keep only the lower convex hull of the RefToRemote points
// and the upper convex hull of the RemoteToRef points (other points'
// constraints are dominated), then enumerate intersections of constraint
// boundary pairs; feasible intersections are the polygon's vertices, whose
// alpha/beta extremes are the bounds. It works on e's scratch.
func (e *Estimator) Estimate(samples []Sample) (Bounds, error) {
	// above: y > α+βx constraints; below: y < α+βx
	above, below := e.above[:0], e.below[:0]
	for _, s := range samples {
		p := point{x: float64(s.Ref), y: float64(s.Remote)}
		switch s.Dir {
		case RefToRemote:
			above = append(above, p)
		case RemoteToRef:
			below = append(below, p)
		default:
			return Bounds{}, fmt.Errorf("clocksync: sample with invalid direction %d", int(s.Dir))
		}
	}
	e.above, e.below = above, below
	if len(above) == 0 || len(below) == 0 {
		return Bounds{}, ErrTooFewSamples
	}

	// The line alpha + beta*x must pass below every "above" point and
	// above every "below" point. Binding "above" points are on the lower
	// hull of that set; binding "below" points on the upper hull.
	e.lower = e.hull(e.lower, above, false)
	e.upper = e.hull(e.upper, below, true)

	cons := e.cons[:0]
	for _, p := range e.lower {
		cons = append(cons, constraint{x: p.x, y: p.y, upper: true}) // α+βx <= y
	}
	for _, p := range e.upper {
		cons = append(cons, constraint{x: p.x, y: p.y, upper: false}) // α+βx >= y
	}
	e.cons = cons

	// Enumerate candidate vertices: intersections of pairs of constraint
	// boundaries with distinct x (two boundaries y = α+βx through points
	// (x1,y1), (x2,y2) intersect at beta=(y2-y1)/(x2-x1)).
	b := Bounds{
		AlphaLo: math.Inf(1), AlphaHi: math.Inf(-1),
		BetaLo: math.Inf(1), BetaHi: math.Inf(-1),
	}
	feasibleVertices := 0
	for i := 0; i < len(cons); i++ {
		for j := i + 1; j < len(cons); j++ {
			ci, cj := cons[i], cons[j]
			if ci.x == cj.x {
				continue
			}
			beta := (cj.y - ci.y) / (cj.x - ci.x)
			alpha := ci.y - beta*ci.x
			if beta <= 0 {
				continue
			}
			if !feasible(alpha, beta, cons) {
				continue
			}
			feasibleVertices++
			b.AlphaLo = math.Min(b.AlphaLo, alpha)
			b.AlphaHi = math.Max(b.AlphaHi, alpha)
			b.BetaLo = math.Min(b.BetaLo, beta)
			b.BetaHi = math.Max(b.BetaHi, beta)
		}
	}
	if feasibleVertices == 0 {
		// Either nothing satisfies the constraints, or the polygon has no
		// vertices (unbounded strip). Distinguish by probing feasibility
		// of an interior candidate: the least-squares line through all
		// points would be feasible in the unbounded case.
		e.points = append(append(e.points[:0], above...), below...)
		if probeFeasible(e.points, cons) {
			return Bounds{}, ErrUnbounded
		}
		return Bounds{}, ErrInfeasible
	}
	if feasibleVertices < 3 {
		// Fewer than three vertices means the polygon is unbounded in
		// some direction (a wedge or strip): the extreme enumeration
		// understates the true range.
		return Bounds{}, ErrUnbounded
	}
	return b, nil
}

// feasible checks alpha+beta*x against every constraint with a relative
// tolerance: vertices sit exactly on two boundaries and must not be
// rejected for rounding.
func feasible(alpha, beta float64, cons []constraint) bool {
	for _, c := range cons {
		v := alpha + beta*c.x
		tol := 1e-9 * (math.Abs(v) + math.Abs(c.y) + 1)
		if c.upper {
			if v > c.y+tol {
				return false
			}
		} else {
			if v < c.y-tol {
				return false
			}
		}
	}
	return true
}

// probeFeasible tests whether the constraint system admits any line at all,
// using the least-squares fit through all sample points as the probe.
func probeFeasible(pts []point, cons []constraint) bool {
	if len(pts) < 2 {
		return false
	}
	var sx, sy, sxx, sxy, n float64
	for _, p := range pts {
		sx += p.x
		sy += p.y
		sxx += p.x * p.x
		sxy += p.x * p.y
		n++
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return false
	}
	beta := (n*sxy - sx*sy) / den
	alpha := (sy - beta*sx) / n
	return beta > 0 && feasible(alpha, beta, cons)
}

// hull computes into dst the lower (upper=false) or upper (upper=true)
// convex hull of pts, sorted by x. Duplicate x keeps the binding point only
// (min y for lower hull, max y for upper). pts is left as it was.
func (e *Estimator) hull(dst, pts []point, upper bool) []point {
	sorted := append(e.points[:0], pts...)
	slices.SortFunc(sorted, func(a, b point) int {
		if a.x != b.x {
			return cmp.Compare(a.x, b.x)
		}
		if upper {
			return cmp.Compare(b.y, a.y)
		}
		return cmp.Compare(a.y, b.y)
	})
	e.points = sorted
	h := dst[:0]
	for i, p := range sorted {
		// Drop duplicate x (keep first = binding one given the sort).
		if i > 0 && p.x == sorted[i-1].x {
			continue
		}
		for len(h) >= 2 && !turns(h[len(h)-2], h[len(h)-1], p, upper) {
			h = h[:len(h)-1]
		}
		h = append(h, p)
	}
	return h
}

// turns reports whether b is a genuine hull vertex between a and c.
func turns(a, b, c point, upper bool) bool {
	cross := (b.x-a.x)*(c.y-a.y) - (b.y-a.y)*(c.x-a.x)
	if upper {
		return cross < 0
	}
	return cross > 0
}
