package core

import (
	"fmt"

	"repro/internal/faultexpr"
)

// This file implements two features the thesis describes but left
// unimplemented:
//
//   - Host crash and reboot (§3.6.4: "This support for host crash and
//     reboot has not yet been implemented in Loki"): crashing a host takes
//     its local daemon and every node on it down at once; after a reboot,
//     nodes may be restarted there.
//   - Automatic notify-list derivation (§5.3: "This process of obtaining
//     the notify lists could possibly be automated in future versions of
//     Loki"): the notify lists a study needs follow from the fault
//     specifications — machine M must notify machine W whenever one of W's
//     fault expressions references M's state.

// CrashHost simulates a host failure: every node running on the host
// crashes (recorded in its timeline and notified per its CRASH notify
// list), and the host refuses new nodes until RebootHost. Crashing a host
// owned by another endpoint forwards the operation there.
func (r *Runtime) CrashHost(name string) error {
	return r.onHost(chaosOp{Op: "crashhost", A: name})
}

// RebootHost brings a crashed host back; its local daemon reconnects
// (§3.6.4) and nodes may be started on it again. Rebooting a host owned
// by another endpoint forwards the operation there.
func (r *Runtime) RebootHost(name string) error {
	return r.onHost(chaosOp{Op: "reboothost", A: name})
}

// setHostDown is the crashhost/reboothost op on a local host.
func (r *Runtime) setHostDown(name string, down bool) error {
	r.mu.Lock()
	hs, ok := r.hosts[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("core: unknown host %q", name)
	}
	hs.down = down
	var victims []*Node
	if down {
		for _, n := range r.nodes {
			if n.Host() == name {
				victims = append(victims, n)
			}
		}
	}
	r.mu.Unlock()
	for _, n := range victims {
		n.crash()
	}
	return nil
}

// HostDown reports whether the named host is currently crashed.
func (r *Runtime) HostDown(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	hs, ok := r.hosts[name]
	return ok && hs.down
}

// AutoNotify fills in the notify lists of every definition's state machine
// specification from the fault specifications of the whole study: if any
// fault of machine W references machine M, then every state of M notifies
// W. (Notifying on every state is the sound closure: W must observe M
// *leaving* a state of interest, which manifests as M entering an
// arbitrary other state.) Existing notify entries are preserved; the specs
// are modified in place. Call before Register.
func AutoNotify(defs []NodeDef) {
	// watchers[M] = set of machines whose faults reference M.
	watchers := make(map[string]map[string]bool)
	for _, def := range defs {
		for _, f := range def.Faults {
			for _, m := range faultexpr.Machines(f.Expr) {
				if m == def.Nickname {
					continue // self-observation needs no notification
				}
				if watchers[m] == nil {
					watchers[m] = make(map[string]bool)
				}
				watchers[m][def.Nickname] = true
			}
		}
	}
	for _, def := range defs {
		watch := watchers[def.Nickname]
		if len(watch) == 0 || def.Spec == nil {
			continue
		}
		for _, stateName := range def.Spec.StateOrder {
			st := def.Spec.States[stateName]
			have := make(map[string]bool, len(st.Notify))
			for _, n := range st.Notify {
				have[n] = true
			}
			for w := range watch {
				if !have[w] {
					st.Notify = append(st.Notify, w)
				}
			}
			sortNotify(st.Notify)
		}
	}
}

func sortNotify(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
