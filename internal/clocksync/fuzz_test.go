package clocksync

import (
	"math"
	"strings"
	"testing"

	"repro/internal/vclock"
)

// FuzzEncodeAlphaBeta: for any four float64 bit patterns, AppendAlphaBeta
// writes what the %.17g reference encoder writes, byte for byte, and
// DecodeAlphaBeta reads back the same bits (NaN reads back as NaN: the
// text has one NaN).
//
// Mutation-checked: AppendFloat's 'g', -1 (shortest) in place of 'g', 17
// fails on the first seed holding 0.1, which %.17g writes as
// 0.10000000000000001.
func FuzzEncodeAlphaBeta(f *testing.F) {
	seeds := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e-7, 1e20, 123456789012345678,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64,
		0.999999, 1.000001, -1234.5,
	}
	for i, v := range seeds {
		w := seeds[(i+1)%len(seeds)]
		f.Add(math.Float64bits(v), math.Float64bits(w), math.Float64bits(-v), math.Float64bits(1/w))
	}
	f.Fuzz(func(t *testing.T, aLo, aHi, bLo, bHi uint64) {
		in := Bounds{
			AlphaLo: math.Float64frombits(aLo), AlphaHi: math.Float64frombits(aHi),
			BetaLo: math.Float64frombits(bLo), BetaHi: math.Float64frombits(bHi),
		}
		bounds := map[string]Bounds{"ref": Identity(), "m1": in, "m0": {BetaLo: in.AlphaHi, BetaHi: in.AlphaLo}}
		var want strings.Builder
		if err := referenceEncodeAlphaBeta(&want, "ref", bounds); err != nil {
			t.Fatal(err)
		}
		got := string(AppendAlphaBeta([]byte("prefix"), "ref", bounds))
		if got != "prefix"+want.String() {
			t.Fatalf("AppendAlphaBeta wrote\n%q\nthe %%.17g reference\n%q", got[len("prefix"):], want.String())
		}
		ref, back, err := DecodeAlphaBeta(strings.NewReader(want.String()))
		if err != nil || ref != "ref" || len(back) != len(bounds) {
			t.Fatalf("decoding %q: ref %q, %d hosts, %v", want.String(), ref, len(back), err)
		}
		for h, b := range bounds {
			wantBits := [4]float64{b.AlphaLo, b.AlphaHi, b.BetaLo, b.BetaHi}
			gotBits := [4]float64{back[h].AlphaLo, back[h].AlphaHi, back[h].BetaLo, back[h].BetaHi}
			for i := range wantBits {
				w, g := wantBits[i], gotBits[i]
				if math.Float64bits(w) != math.Float64bits(g) && !(math.IsNaN(w) && math.IsNaN(g)) {
					t.Fatalf("host %s bound %d: wrote %v (%#x), read back %v (%#x)", h, i, w, math.Float64bits(w), g, math.Float64bits(g))
				}
			}
		}
	})
}

// TestTimestampsMatchReference: AppendTimestamps writes what the fmt-based
// reference encoder writes, at the extremes of the tick range too.
func TestTimestampsMatchReference(t *testing.T) {
	var msgs []StampedMessage
	for _, ticks := range []int64{0, 1, -1, 999_999_937, math.MaxInt64, math.MinInt64} {
		msgs = append(msgs, StampedMessage{SendHost: "h1", RecvHost: "ref", SendTime: vclock.Ticks(ticks), RecvTime: vclock.Ticks(-ticks / 3)})
	}
	var want strings.Builder
	if err := referenceEncodeTimestamps(&want, msgs); err != nil {
		t.Fatal(err)
	}
	if got := string(AppendTimestamps([]byte("prefix"), msgs)); got != "prefix"+want.String() {
		t.Fatalf("AppendTimestamps wrote\n%q\nthe reference\n%q", got[len("prefix"):], want.String())
	}
	var enc strings.Builder
	if err := EncodeTimestamps(&enc, msgs); err != nil || enc.String() != want.String() {
		t.Fatalf("EncodeTimestamps = %q, %v", enc.String(), err)
	}
}
