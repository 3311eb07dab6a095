package dns

import (
	"fmt"
	"sync/atomic"
)

// internShift sizes the intern table: 1<<16 slots of one pointer each
// (512 KB), and at most one Name per slot, so the table holds about 3 MB at
// the sizes decoded names have (a 16 B pointer target plus a 32 B string
// for a name of up to 32 bytes) and at most about 17 MB at the longest.
const internShift = 16

// nameTable is the decoder's intern table: direct-mapped, one slot per
// hash of a name's decoded text, each slot an immutable Name published
// atomically. A slot holds the last name decoded into it, so a name stays
// shared while it keeps being asked and a colliding one replaces it; a
// storm of distinct names replaces one slot per name and cannot flush the
// table in one step. Readers and writers take no lock.
var nameTable [1 << internShift]atomic.Pointer[Name]

// internSlot maps decoded text to its slot's index: FNV-1a over the bytes,
// finished with a multiply so the top bits depend on all of them. A fixed
// hash keeps hit counts, and so allocation counts, reproducible run to run.
func internSlot(text []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range text {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return (h * 0x9E3779B97F4A7C15) >> (64 - internShift)
}

// internName resolves decoded text (labels joined by dots, no trailing
// dot) to a shared Name value. A hit compares bytes and allocates nothing.
// A miss validates the text, builds the Name in one allocation and
// publishes it in the slot; text that is not lowercase goes through
// MakeName and is not published, since its slot could never match it.
func internName(text []byte) (Name, error) {
	slot := &nameTable[internSlot(text)]
	if p := slot.Load(); p != nil && len(*p) == len(text)+1 && string((*p)[:len(text)]) == string(text) {
		return *p, nil
	}
	if checkNameText(text) != nil {
		// Uppercase fails the check but is a name; MakeName lowercases it,
		// and refuses what is not a name.
		n, err := MakeName(string(text))
		if err != nil {
			return "", fmt.Errorf("decoding name: %w", err)
		}
		return n, nil
	}
	// The conversion inside the concatenation does not copy: one string.
	n := Name(string(text) + ".")
	slot.Store(&n)
	return n, nil
}
