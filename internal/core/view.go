package core

// stateView is a node's partial view of global state (§3.6.3). The live
// map backs trigger evaluation directly (it implements faultexpr.View), so
// the probe's notification path copies nothing per local event or remote
// notify.
//
// All methods must be called with the owning node's mu held.
type stateView struct {
	m map[string]string
}

func newStateView() *stateView {
	return &stateView{m: make(map[string]string)}
}

// StateOf implements faultexpr.View against the live map.
func (v *stateView) StateOf(machine string) (string, bool) {
	s, ok := v.m[machine]
	return s, ok
}

// set records a machine's new state.
func (v *stateView) set(machine, state string) { v.m[machine] = state }

// reset empties the view for a new node, keeping the map's storage.
func (v *stateView) reset() { clear(v.m) }
