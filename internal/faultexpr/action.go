package faultexpr

import (
	"fmt"
	"strings"
	"time"
	"unicode"
)

// ActionCall names a built-in fault action to execute when the fault fires,
// in place of the application's InjectFault callback. It extends the §3.5.5
// fault specification entry with an optional trailing action:
//
//	<FaultName> <BooleanFaultExpression> <once|always> [<action>(<args>) [<for>]]
//
// e.g.
//
//	netsplit ((SM1:ELECT) & (SM2:FOLLOW)) once partition(h1|h2,h3) 50ms
//
// The action name selects a built-in from the chaos action library
// (internal/chaos); Raw carries the argument text verbatim and Args its
// top-level comma split, so each action can impose its own argument
// grammar (partition, for instance, separates host groups with '|'). For,
// when non-zero, auto-reverts the action that long after injection.
type ActionCall struct {
	Name string
	Raw  string
	Args []string
	For  time.Duration
}

// String renders the call in its spec-file syntax.
func (a *ActionCall) String() string {
	var buf [64]byte
	return string(a.AppendSyntax(buf[:0]))
}

// AppendSyntax appends the call in its spec-file syntax, String's bytes,
// to b.
func (a *ActionCall) AppendSyntax(b []byte) []byte {
	b = append(append(append(append(b, a.Name...), '('), a.Raw...), ')')
	if a.For > 0 {
		b = append(append(b, ' '), a.For.String()...)
	}
	return b
}

// ParseActionCall parses "<action>(<args>) [<duration>]". The argument text
// must have balanced parentheses; arguments are split at top-level commas
// with surrounding space trimmed. An empty argument list ("heal()") is
// allowed.
func ParseActionCall(src string) (*ActionCall, error) {
	s := strings.TrimSpace(src)
	open := strings.IndexByte(s, '(')
	if open <= 0 {
		return nil, fmt.Errorf("faultexpr: action %q: want <name>(<args>)", src)
	}
	name := strings.TrimSpace(s[:open])
	for _, r := range name {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
			return nil, fmt.Errorf("faultexpr: action %q: invalid name %q", src, name)
		}
	}
	depth := 0
	closeAt := -1
	for i := open; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				closeAt = i
			}
		}
		if closeAt >= 0 {
			break
		}
	}
	if closeAt < 0 {
		return nil, fmt.Errorf("faultexpr: action %q: unbalanced parentheses", src)
	}
	call := &ActionCall{Name: name, Raw: strings.TrimSpace(s[open+1 : closeAt])}
	call.Args = SplitTopLevel(call.Raw, ',')
	if rest := strings.TrimSpace(s[closeAt+1:]); rest != "" {
		d, err := time.ParseDuration(rest)
		if err != nil {
			return nil, fmt.Errorf("faultexpr: action %q: bad duration %q: %v", src, rest, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("faultexpr: action %q: negative duration %q", src, rest)
		}
		call.For = d
	}
	return call, nil
}

// SplitTopLevel splits s at occurrences of sep outside any parentheses,
// trimming space around each piece. An empty (all-space) s yields nil.
func SplitTopLevel(s string, sep byte) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(out, strings.TrimSpace(s[start:]))
}
