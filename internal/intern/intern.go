// Package intern keeps the short strings a decoder has returned, so one that
// reads the same names over and over copies each out of its input once.
package intern

// MaxLen is the longest string a Table keeps; a longer one is always copied.
const MaxLen = 64

// Table is a direct-mapped table of short strings, owned by one goroutine.
// Its zero value is ready, and a nil *Table copies every string.
type Table struct {
	names [256]string
}

// String returns b as a string, never aliasing b. A short one is the
// string in b's slot, or a copy of b that takes the slot over.
func (t *Table) String(b []byte) string {
	if t == nil || len(b) > MaxLen {
		return string(b)
	}
	slot := &t.names[Slot(b)]
	if *slot != string(b) { // a comparison that does not allocate
		*slot = string(b)
	}
	return *slot
}

// Slot is b's index in a Table: its FNV-1a hash, folded.
func Slot(b []byte) uint8 {
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	return uint8(h ^ h>>8 ^ h>>16 ^ h>>24)
}
