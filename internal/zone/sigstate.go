package zone

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// SigState is the serializable signature state of one signed zone: its
// generation counter and the memoized RRSIGs the zone currently holds.
// Warm-state snapshots carry it so a loaded fleet member serves the warm
// shard's RRsets with zero re-signing; the generation pins the state to
// the exact zone contents it was derived from.
type SigState struct {
	// Apex identifies the zone.
	Apex dns.Name
	// Generation is the zone's mutation counter at export time. Import
	// refuses a mismatch: a signature memoized against different zone
	// contents must never be served.
	Generation uint64
	// Entries maps RRset keys to their RRSIGs, in sorted key order.
	Entries []SigEntry
}

// SigEntry is one memoized signature.
type SigEntry struct {
	// Key is the signed RRset.
	Key dns.Key
	// Sig is the covering RRSIG record.
	Sig dns.RR
}

// ExportSigState snapshots the zone's memoized signatures. Returns nil for
// an unsigned zone (nothing to carry) and an empty state for a signed zone
// that has not served anything yet.
func (z *Zone) ExportSigState() *SigState {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if z.sig == nil {
		return nil
	}
	st := &SigState{Apex: z.apex, Generation: z.gen,
		Entries: make([]SigEntry, 0, z.sig.sigs.Len())}
	z.sig.sigs.Each(func(key dns.Key, sig dns.RR) {
		st.Entries = append(st.Entries, SigEntry{Key: key, Sig: sig})
	})
	slices.SortFunc(st.Entries, func(a, b SigEntry) int {
		return cmp.Or(dns.CanonicalCompare(a.Key.Name, b.Key.Name),
			cmp.Compare(a.Key.Type, b.Key.Type), cmp.Compare(a.Key.Class, b.Key.Class))
	})
	return st
}

// CheckSigState reports whether ImportSigState would accept st, installing
// nothing: snapshot.Install checks every zone's state this way before it
// imports the first, so a refusal leaves no zone with foreign signatures.
func (z *Zone) CheckSigState(st *SigState) error {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.checkSigStateLocked(st)
}

// ImportSigState installs previously exported signatures into the zone's
// memo cache. It refuses — with no partial installation — when the zone is
// unsigned, the apex differs, the generation differs (the zone mutated
// since export, so the signatures cover stale contents), the state holds
// more entries than the cache can, or any entry is structurally unsound.
// Importing does not bump the generation: the memo cache never affects
// served bytes, only whether serving them re-signs.
func (z *Zone) ImportSigState(st *SigState) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if err := z.checkSigStateLocked(st); err != nil {
		return err
	}
	for i := range st.Entries {
		z.sig.sigs.Put(st.Entries[i].Key, st.Entries[i].Sig)
	}
	return nil
}

func (z *Zone) checkSigStateLocked(st *SigState) error {
	if z.sig == nil {
		return fmt.Errorf("%w: cannot import signatures into %s", ErrNotSigned, z.apex)
	}
	if st.Apex != z.apex {
		return fmt.Errorf("zone %s: signature state belongs to %s", z.apex, st.Apex)
	}
	if st.Generation != z.gen {
		return fmt.Errorf("zone %s: signature state at generation %d, zone at %d (stale)",
			z.apex, st.Generation, z.gen)
	}
	if len(st.Entries) > genCacheCap {
		return fmt.Errorf("zone %s: %d imported signatures exceed cache cap %d",
			z.apex, len(st.Entries), genCacheCap)
	}
	for i := range st.Entries {
		e := &st.Entries[i]
		if !e.Key.Name.IsSubdomainOf(z.apex) {
			return fmt.Errorf("zone %s: imported signature for out-of-zone %s", z.apex, e.Key.Name)
		}
		data, ok := e.Sig.Data.(*dns.RRSIGData)
		if !ok || e.Sig.Type != dns.TypeRRSIG {
			return fmt.Errorf("zone %s: imported entry for %s is not an RRSIG", z.apex, e.Key)
		}
		if e.Sig.Name != e.Key.Name || data.TypeCovered != e.Key.Type {
			return fmt.Errorf("zone %s: imported RRSIG does not cover its key %s", z.apex, e.Key)
		}
	}
	return nil
}
