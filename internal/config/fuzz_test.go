package config

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseConfig feeds the campaign-file decoder — the one every lokirun
// invocation, runtime subcommand included, trusts with a user's file —
// arbitrary bytes. A document that parses and validates must survive its
// own encoding with its fingerprint (the journal's identity check)
// unchanged and still validate, and Build must never panic on it,
// whatever it decides.
func FuzzParseConfig(f *testing.F) {
	paths, err := filepath.Glob("../../examples/*/campaign.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example campaign files to seed from: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil || Validate(c) != nil {
			return
		}
		enc, err := Encode(c)
		if err != nil {
			t.Fatalf("a valid campaign does not encode: %v", err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("parsing its own encoding: %v\n%s", err, enc)
		}
		if got, want := Fingerprint(back), Fingerprint(c); got != want {
			t.Fatalf("Encode→Parse changed the fingerprint %s to %s:\n%s", want, got, enc)
		}
		if err := Validate(back); err != nil {
			t.Fatalf("the re-parsed campaign no longer validates: %v\n%s", err, enc)
		}
		Build(back) // may refuse the campaign, must not panic
	})
}
