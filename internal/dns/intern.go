package dns

import (
	"fmt"
	"sync"
)

// nameInternCap bounds the intern table. A top-1M-scale universe touches a
// few million distinct owner names; the table resets when full rather than
// evicting, so a pathological workload costs repeated misses instead of
// unbounded memory.
const nameInternCap = 1 << 20

// nameIntern maps decoded presentation text (lowercase, dots between labels,
// no trailing dot) to the interned Name. Lookups key on a stack buffer via the compiler's
// map[string(bytes)] optimization, so a hit allocates nothing. An entry's key
// is a slice of its own Name (the Name minus its trailing dot), so a
// first-seen name costs the table one string, not two.
var nameIntern = struct {
	sync.RWMutex
	m map[string]Name
}{m: make(map[string]Name, 1024)}

// internName resolves the canonical text of a decoded name to a shared Name
// value. On a miss the text is validated through MakeName and the result is
// published for subsequent hits.
func internName(text []byte) (Name, error) {
	nameIntern.RLock()
	n, ok := nameIntern.m[string(text)]
	nameIntern.RUnlock()
	if ok {
		return n, nil
	}
	n, err := MakeName(string(text))
	if err != nil {
		return "", fmt.Errorf("decoding name: %w", err)
	}
	nameIntern.Lock()
	if len(nameIntern.m) >= nameInternCap {
		nameIntern.m = make(map[string]Name, 1024)
	}
	// The decoder's text is already lowercase and undotted, so MakeName only
	// appended the dot and the key can share the Name's bytes. Any other
	// input keys on its own copy.
	key := string(n[:len(n)-1])
	if key != string(text) {
		key = string(text)
	}
	nameIntern.m[key] = n
	nameIntern.Unlock()
	return n, nil
}
