package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// seedTrace is a traced virtual-time run's artifact: one crash-restart
// experiment of examples/chaos (lokirun -virtual-time -trace).
func seedTrace(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "crashrestart.trace.jsonl"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func TestDecodeTraceSeedRoundTrips(t *testing.T) {
	seed := seedTrace(t)
	tr, err := obs.DecodeTrace(bytes.NewReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	var enc bytes.Buffer
	if err := tr.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), seed) {
		t.Errorf("re-encoding the seed artifact changed it:\n%s", enc.Bytes())
	}
}

// TestDecodeTraceRejectsTruncated cuts the artifact after every whole line
// short of the last: each cut must be refused, since the header's counts
// say more lines follow.
func TestDecodeTraceRejectsTruncated(t *testing.T) {
	seed := seedTrace(t)
	for cut := bytes.IndexByte(seed, '\n') + 1; cut < len(seed); {
		if _, err := obs.DecodeTrace(bytes.NewReader(seed[:cut])); err == nil {
			t.Errorf("artifact cut to %d of %d bytes decoded without error", cut, len(seed))
		}
		cut += bytes.IndexByte(seed[cut:], '\n') + 1
	}
}

func TestDecodeTraceRejectsUnknownLine(t *testing.T) {
	hdr := `{"trace":"loki/1","point":"p","index":0,"spans":1,"events":0}` + "\n"
	span := `{"span":{"name":"reset","start":1,"end":2}}` + "\n"
	for name, body := range map[string]string{
		"neither": `{"note":"x"}` + "\n",
		"both":    `{"span":{"name":"a","start":1,"end":2},"event":{"at":1,"cat":"phase","name":"b"}}` + "\n",
		"null":    `{"span":null}` + "\n",
	} {
		if _, err := obs.DecodeTrace(strings.NewReader(hdr + span + body)); err == nil {
			t.Errorf("%s: a line that is not one span or one event decoded without error", name)
		}
	}
}

// FuzzDecodeTrace feeds the trace decoder — which reads member lanes off
// the wire and artifacts off disk — arbitrary bytes. It must never panic,
// and whatever it accepts must survive its own encoding: Decode∘Encode is
// the identity on traces, and re-encoding is byte-stable.
func FuzzDecodeTrace(f *testing.F) {
	seed := seedTrace(f)
	f.Add(seed)
	f.Add(seed[:bytes.IndexByte(seed, '\n')+1])
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := obs.DecodeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := tr.Encode(&enc); err != nil {
			t.Fatalf("a decoded trace does not encode: %v", err)
		}
		back, err := obs.DecodeTrace(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("decoding its own encoding: %v\n%s", err, enc.Bytes())
		}
		if back.Point != tr.Point || back.Index != tr.Index ||
			!reflect.DeepEqual(back.Spans(), tr.Spans()) {
			t.Fatalf("Decode∘Encode changed the trace:\n%s", enc.Bytes())
		}
		var again bytes.Buffer
		if err := back.Encode(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), enc.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc.Bytes(), again.Bytes())
		}
	})
}
