package core

import "repro/internal/faultexpr"

// stateView is a node's partial view of global state (§3.6.3) with
// versioned copy-on-write snapshots. The probe's notification path used to
// deep-copy the whole map on every local event and remote notify before
// running the fault parser; instead the live map now backs trigger
// evaluation directly (it implements faultexpr.View), and a copy is made
// only when a caller asks for a stable Snapshot — at most once per
// version, however many snapshots are requested.
//
// All methods must be called with the owning node's mu held; handed-out
// snapshots are immutable and safe to read after the lock is released.
type stateView struct {
	m       map[string]string
	version uint64
	// snap caches the copy for the current version; nil means dirty.
	snap faultexpr.MapView
}

func newStateView() *stateView {
	return &stateView{m: make(map[string]string)}
}

// StateOf implements faultexpr.View against the live map.
func (v *stateView) StateOf(machine string) (string, bool) {
	s, ok := v.m[machine]
	return s, ok
}

// set records a machine's new state, invalidating any cached snapshot.
func (v *stateView) set(machine, state string) {
	if s, ok := v.m[machine]; ok && s == state {
		return // no-op change: the view (and its version) is unchanged
	}
	v.m[machine] = state
	v.version++
	v.snap = nil
}

// reset empties the view for a new node, keeping the map's storage. The
// version keeps counting: no version seen before the reset names the new
// view.
func (v *stateView) reset() {
	clear(v.m)
	v.version++
	v.snap = nil
}

// Version returns the mutation counter; it advances on every effective set.
func (v *stateView) Version() uint64 { return v.version }

// Snapshot returns an immutable copy of the current view, copying only when
// the view changed since the last snapshot.
func (v *stateView) Snapshot() faultexpr.MapView {
	if v.snap == nil {
		cp := make(faultexpr.MapView, len(v.m))
		for m, s := range v.m {
			cp[m] = s
		}
		v.snap = cp
	}
	return v.snap
}
