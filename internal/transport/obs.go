package transport

import (
	"repro/internal/obs"
)

// KindName returns a frame kind's short name for diagnostics and traces.
func KindName(k byte) string {
	switch k {
	case KindNote:
		return "note"
	case KindApp:
		return "app"
	case KindChaos:
		return "chaos"
	case KindCtrl:
		return "ctrl"
	case KindSyncPing:
		return "syncping"
	case KindSyncPong:
		return "syncpong"
	default:
		return "unknown"
	}
}

// SetObserver attaches a frame/byte metric bundle to the endpoint, when
// the implementation supports counting (the built-ins do, in the shared
// shell). A nil bundle detaches; a nil or unsupported transport is a
// no-op. The bundle's methods are nil-safe, so the shell observes
// unconditionally through the atomically-loaded pointer.
func SetObserver(t Transport, m *obs.TransportMetrics) {
	if o, ok := t.(interface {
		setObserver(*obs.TransportMetrics)
	}); ok {
		o.setObserver(m)
	}
}
