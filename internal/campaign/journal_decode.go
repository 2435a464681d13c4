package campaign

import (
	"encoding"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/analysis"
	"repro/internal/clocksync"
	"repro/internal/intern"
	"repro/internal/timeline"
)

// lineDecoder is the strict decoder of a record line's body as append
// writes it (appendRecord), which is byte for byte what
// json.Marshal(*journalRecord[*ExperimentRecord]) writes: no whitespace,
// the record types' keys spelled and ordered as json.Marshal writes them,
// strings in valid UTF-8 with only JSON's escapes, and numbers handed to
// the strconv calls encoding/json makes. It reads a body in place,
// in one pass, with no reflection, and is the only decoder of a verified
// record line. It refuses every other body — a key in another order,
// spelling or case, a repeated field, whitespace, a null Experiment, a
// value of another type, invalid UTF-8, a UTF-16 surrogate escape, text
// that does not decode — so a body either is refused here or decodes to
// exactly what encoding/json makes of it (FuzzStrictLineMatchesEncodingJSON).
//
// A decoder belongs to one goroutine: scratch is the unescape buffer of its
// strings and names the short ones it has returned (str). Nothing it returns
// aliases scratch or the line: strings are copied out, once per distinct
// value, and the timeline texts' UnmarshalText copies the bytes it is given.
type lineDecoder struct {
	b       []byte // the record body
	i       int    // read offset in b
	scratch []byte
	names   intern.Table
}

// experimentKeys are ExperimentRecord's member keys, colon included, in
// declaration order: the order appendRecord and json.Marshal write them
// in, any of them absent (omitempty). summary marks the fields a
// RecordSummary keeps; a summary read validates and skips the others'
// values.
// TestStrictDecoderKnowsEveryField fails when a field is missing here.
var experimentKeys = [...]struct {
	key     string
	summary bool
}{
	{`"Study":`, false},
	{`"Index":`, true},
	{`"Completed":`, true},
	{`"Accepted":`, true},
	{`"Outcomes":`, false},
	{`"Bounds":`, false},
	{`"Global":`, false},
	{`"Report":`, false},
	{`"AnalysisError":`, true},
	{`"ClockStepSuspected":`, true},
	{`"ClockStepHosts":`, false},
	{`"ClockStepBounds":`, false},
	{`"Locals":`, false},
	{`"Stamps":`, false},
}

// decode reads a verified record body into r in shape E — whole for a
// resume, or its verdict fields — and reports whether it decodes.
func decode[E *ExperimentRecord | RecordSummary](d *lineDecoder, body []byte, r *journalRecord[E]) bool {
	if whole, ok := any(r).(*journalRecord[*ExperimentRecord]); ok {
		return d.resume(body, whole)
	}
	return d.summary(body, any(r).(*journalRecord[RecordSummary]))
}

// resume decodes a record body whole into r, as a resume keeps it: its
// ExperimentRecord is the one allocation.
func (d *lineDecoder) resume(body []byte, r *journalRecord[*ExperimentRecord]) bool {
	r.Experiment = new(ExperimentRecord)
	return d.record(body, &r.Point, &r.Index, &r.Fingerprint, r.Experiment, true)
}

// summary decodes a record body's key and verdict fields into r, with no
// allocation of its own.
func (d *lineDecoder) summary(body []byte, r *journalRecord[RecordSummary]) bool {
	var rec ExperimentRecord
	if !d.record(body, &r.Point, &r.Index, &r.Fingerprint, &rec, false) {
		return false
	}
	r.Experiment = Summarize("", &rec)
	return true
}

// record reads a whole record body. With full unset only experimentKeys'
// summary fields are stored in rec.
func (d *lineDecoder) record(body []byte, point *string, index *int, fp *string, rec *ExperimentRecord, full bool) bool {
	d.b, d.i = body, 0
	return d.lit(`{"Point":`) && d.str(point) &&
		d.lit(`,"Index":`) && integer(d, index) &&
		d.lit(`,"Fingerprint":`) && d.str(fp) &&
		d.lit(`,"Experiment":`) && d.experiment(rec, full) &&
		d.lit(`}`) && d.i == len(d.b)
}

// experiment reads an ExperimentRecord object: its members in declaration
// order, each at most once.
func (d *lineDecoder) experiment(rec *ExperimentRecord, full bool) bool {
	if !d.lit("{") {
		return false
	}
	if d.lit("}") {
		return true
	}
	for k := 0; ; k++ {
		for k < len(experimentKeys) && !d.lit(experimentKeys[k].key) {
			k++
		}
		if k == len(experimentKeys) {
			return false
		}
		if full || experimentKeys[k].summary {
			if !d.field(rec, experimentKeys[k].key) {
				return false
			}
		} else if !d.skip(0) {
			return false
		}
		if d.lit("}") {
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}

// field reads the value of rec's member key.
func (d *lineDecoder) field(rec *ExperimentRecord, key string) bool {
	switch key {
	case `"Study":`:
		return d.str(&rec.Study)
	case `"Index":`:
		return integer(d, &rec.Index)
	case `"Completed":`:
		return d.bool(&rec.Completed)
	case `"Accepted":`:
		return d.bool(&rec.Accepted)
	case `"Outcomes":`:
		return members(d, &rec.Outcomes, func() (s string, ok bool) { ok = d.str(&s); return })
	case `"Bounds":`:
		return members(d, &rec.Bounds, func() (b clocksync.Bounds, ok bool) { ok = d.bounds(&b); return })
	case `"Global":`:
		return text(d, &rec.Global)
	case `"Report":`:
		return d.report(&rec.Report)
	case `"AnalysisError":`:
		return d.str(&rec.AnalysisError)
	case `"ClockStepSuspected":`:
		return d.bool(&rec.ClockStepSuspected)
	case `"ClockStepHosts":`:
		return list(d, &rec.ClockStepHosts, d.str)
	case `"ClockStepBounds":`:
		return members(d, &rec.ClockStepBounds, func() (b StepBound, ok bool) { ok = d.stepBound(&b); return })
	case `"Locals":`:
		return list(d, &rec.Locals, func(l **timeline.Local) bool { return text(d, l) })
	case `"Stamps":`:
		return list(d, &rec.Stamps, d.stamp)
	}
	return false
}

func (d *lineDecoder) report(dst **analysis.Report) bool {
	if d.lit("null") {
		return true
	}
	r := new(analysis.Report)
	*dst = r
	return d.lit(`{"Injections":`) && list(d, &r.Injections, d.injection) &&
		d.lit(`,"MissingFaults":`) && list(d, &r.MissingFaults, d.str) &&
		d.lit(`,"Accepted":`) && d.bool(&r.Accepted) && d.lit("}")
}

func (d *lineDecoder) injection(c *analysis.InjectionCheck) bool {
	return d.lit(`{"Machine":`) && d.str(&c.Machine) &&
		d.lit(`,"Fault":`) && d.str(&c.Fault) &&
		d.lit(`,"At":{"Lo":`) && integer(d, &c.At.Lo) &&
		d.lit(`,"Hi":`) && integer(d, &c.At.Hi) &&
		d.lit(`},"Correct":`) && d.bool(&c.Correct) &&
		d.lit(`,"Reason":`) && d.str(&c.Reason) && d.lit("}")
}

func (d *lineDecoder) bounds(b *clocksync.Bounds) bool {
	return d.lit(`{"AlphaLo":`) && d.float(&b.AlphaLo) &&
		d.lit(`,"AlphaHi":`) && d.float(&b.AlphaHi) &&
		d.lit(`,"BetaLo":`) && d.float(&b.BetaLo) &&
		d.lit(`,"BetaHi":`) && d.float(&b.BetaHi) && d.lit("}")
}

func (d *lineDecoder) stepBound(b *StepBound) bool {
	return d.lit(`{"Lo":`) && integer(d, &b.Lo) && d.lit(`,"Hi":`) && integer(d, &b.Hi) && d.lit("}")
}

func (d *lineDecoder) stamp(m *clocksync.StampedMessage) bool {
	return d.lit(`{"SendHost":`) && d.str(&m.SendHost) &&
		d.lit(`,"RecvHost":`) && d.str(&m.RecvHost) &&
		d.lit(`,"SendTime":`) && integer(d, &m.SendTime) &&
		d.lit(`,"RecvTime":`) && integer(d, &m.RecvTime) && d.lit("}")
}

// list reads a JSON array into a fresh slice, elem reading each element in
// place: [] is an empty slice and null a nil one, as encoding/json decodes
// them into a fresh record.
func list[T any](d *lineDecoder, dst *[]T, elem func(*T) bool) bool {
	if d.lit("null") {
		return true
	}
	if !d.lit("[") {
		return false
	}
	s := []T{}
	for n := 0; !d.lit("]"); n++ {
		if n > 0 && !d.lit(",") {
			return false
		}
		if n == 0 {
			s = make([]T, 0, 4) // encoding/json's first capacity
		}
		if s = append(s, *new(T)); !elem(&s[n]) {
			return false
		}
	}
	*dst = s
	return true
}

// members reads a JSON object of a map type into a fresh map, val reading
// each member's value; null is a nil map. A repeated key keeps its last
// value, as in encoding/json. val returns the value rather than filling a
// pointer, which would move it to the heap.
func members[V any](d *lineDecoder, dst *map[string]V, val func() (V, bool)) bool {
	if d.lit("null") {
		return true
	}
	if !d.lit("{") {
		return false
	}
	m := make(map[string]V)
	for n := 0; !d.lit("}"); n++ {
		var key string
		if n > 0 && !d.lit(",") || !d.str(&key) || !d.lit(":") {
			return false
		}
		v, ok := val()
		if !ok {
			return false
		}
		m[key] = v
	}
	*dst = m
	return true
}

// text reads a JSON string into a fresh T through its UnmarshalText, as
// encoding/json fills a nil pointer to a TextUnmarshaler; null leaves it
// nil. The bytes UnmarshalText is given may be the line's or the scratch,
// so it must copy what it keeps, as encoding/json also requires.
func text[T any, PT interface {
	*T
	encoding.TextUnmarshaler
}](d *lineDecoder, dst *PT) bool {
	if d.lit("null") {
		return true
	}
	s, ok := d.scan(true)
	if !ok {
		return false
	}
	v := PT(new(T))
	if v.UnmarshalText(s) != nil {
		return false
	}
	*dst = v
	return true
}

// str reads a JSON string. A short one comes from the names table: a
// journal repeats names record after record.
func (d *lineDecoder) str(dst *string) bool {
	s, ok := d.scan(true)
	if ok {
		*dst = d.names.String(s)
	}
	return ok
}

func (d *lineDecoder) bool(dst *bool) bool {
	switch {
	case d.lit("true"):
		*dst = true
	case d.lit("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// integer reads a JSON number into an integer field as encoding/json does:
// strconv.ParseInt, then refused if it overflows the field.
func integer[T ~int | ~int64](d *lineDecoder, dst *T) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(T(n)) != n {
		return false
	}
	*dst = T(n)
	return true
}

// float reads a JSON number into a float64 field as encoding/json does,
// with strconv.ParseFloat: out of range is refused.
func (d *lineDecoder) float(dst *float64) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// lit reads s, if the line continues with it.
func (d *lineDecoder) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// number reads a JSON number literal and returns its bytes.
func (d *lineDecoder) number() ([]byte, bool) {
	b, i := d.b, d.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	num := b[d.i:i]
	d.i = i
	return num, true
}

// maxSkipDepth bounds the nesting skip accepts inside a value. The deepest
// skipped value json.Marshal writes (Report's Injections) nests three
// levels; a deeper one is refused, so encoding/json's own depth limit is
// never in question.
const maxSkipDepth = 8

// skip validates and passes over one JSON value of any type, as
// encoding/json passes over a member its destination lacks: a string as
// scan checks it, a number, a literal, or an array or object of them with
// no whitespace.
func (d *lineDecoder) skip(depth int) bool {
	if d.i == len(d.b) || depth > maxSkipDepth {
		return false
	}
	switch d.b[d.i] {
	case '"':
		_, ok := d.scan(false)
		return ok
	case '{':
		d.i++
		for n := 0; !d.lit("}"); n++ {
			if n > 0 && !d.lit(",") {
				return false
			}
			if _, ok := d.scan(false); !ok || !d.lit(":") || !d.skip(depth+1) {
				return false
			}
		}
		return true
	case '[':
		d.i++
		for n := 0; !d.lit("]"); n++ {
			if n > 0 && !d.lit(",") || !d.skip(depth+1) {
				return false
			}
		}
		return true
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	}
	_, ok := d.number()
	return ok
}

// plain marks the bytes a string holds as themselves and encoding/json
// leaves alone when it unquotes: printable ASCII but the quote and the
// backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// scan reads the JSON string at the read offset. With keep it returns the
// string's content unescaped: a sub-slice of the line when it has no
// escape, else the scratch, valid until the next scan. Without keep it only
// validates the string. It refuses a raw control byte, an unknown escape, a
// \u escape of a UTF-16 surrogate (encoding/json's pairing rules stay
// encoding/json's) and invalid UTF-8 (which encoding/json would replace
// with U+FFFD); json.Marshal writes none of them.
func (d *lineDecoder) scan(keep bool) ([]byte, bool) {
	b, i := d.b, d.i
	if i == len(b) || b[i] != '"' {
		return nil, false
	}
	i++
	start := i
	for i < len(b) && plain[b[i]] {
		i++
	}
	if i < len(b) && b[i] == '"' {
		d.i = i + 1
		return b[start:i], true
	}
	out := d.scratch[:0]
	if keep {
		out = append(out, b[start:i]...)
	}
	for i < len(b) {
		c := b[i]
		switch {
		case plain[c]:
			if keep {
				out = append(out, c)
			}
			i++
		case c == '"':
			d.i = i + 1
			if !keep {
				return nil, true
			}
			d.scratch = out
			return out, true
		case c == '\\':
			r, n := unescape(b[i:])
			if n == 0 {
				return nil, false
			}
			if keep {
				out = utf8.AppendRune(out, r)
			}
			i += n
		case c < ' ':
			return nil, false
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return nil, false
			}
			if keep {
				out = append(out, b[i:i+n]...)
			}
			i += n
		}
	}
	return nil, false
}

// unescape decodes the escape at the start of b: the rune and the escape's
// length, or a length of 0 for an escape scan refuses.
func unescape(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	if i := strings.IndexByte(`"\/bfnrt`, b[1]); i >= 0 {
		return rune("\"\\/\b\f\n\r\t"[i]), 2
	}
	if b[1] != 'u' || len(b) < 6 {
		return 0, 0
	}
	r, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil || utf16.IsSurrogate(rune(r)) {
		return 0, 0
	}
	return rune(r), 6
}
