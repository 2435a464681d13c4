package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level orders log severities. The zero value is Info, so a zero-valued
// logger behaves like the default verbosity.
type Level int32

const (
	Info Level = iota
	Warn
	Error
	Debug Level = -1
)

// String returns the level's lowercase name.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int32(l))
	}
}

// ParseLevel maps a -v flag value ("debug", "info", "warn", "error") to a
// Level.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug, nil
	case "", "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	default:
		return Info, fmt.Errorf("obs: unknown log level %q (want debug, info, warn, or error)", s)
	}
}

// Logger is a minimal structured leveled logger: one line per record,
// `HH:MM:SS.micros level component: message`. It exists so engine
// diagnostics have one sink with one verbosity knob (`lokirun -v`,
// `lokid -v`) instead of stray fmt/log calls; scripts/forbid_rawlog.sh
// enforces that internal/ uses it. Safe for concurrent use. All methods
// are nil-receiver safe and discard.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
}

// NewLogger returns a logger writing records at or above min to w.
func NewLogger(w io.Writer, min Level) *Logger {
	return &Logger{w: w, min: min}
}

// Enabled reports whether records at lv would be written. Callers with
// expensive arguments should gate on it.
func (l *Logger) Enabled(lv Level) bool {
	return l != nil && l.w != nil && lv >= l.min
}

// Logf writes one record. The timestamp is the wall clock — log lines are
// operational output, never trace data, so this does not compromise
// virtual-time determinism.
func (l *Logger) Logf(lv Level, component, format string, args ...interface{}) {
	if !l.Enabled(lv) {
		return
	}
	msg := fmt.Sprintf(format, args...)
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.w, "%s %-5s %s: %s\n", now.Format("15:04:05.000000"), lv, component, msg)
}

// Func adapts the logger to the `func(format, args...)` callback shape
// core.Config.Logf expects, pinning a level and component. Safe on a nil logger (returns a discard function).
func (l *Logger) Func(lv Level, component string) func(string, ...interface{}) {
	return func(format string, args ...interface{}) {
		l.Logf(lv, component, format, args...)
	}
}
