package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/dnsprivacy/lookaside/internal/snapshot"
	"github.com/dnsprivacy/lookaside/internal/universe"
)

// payloadBytes returns the offset of every byte inside a section payload of a
// snapshot file: what is left after the envelope (magic, version,
// section count, each section's tag and length, crc64 trailer).
func payloadBytes(t *testing.T, file []byte) []int {
	t.Helper()
	off := 5
	uvarint := func() int {
		v, n := binary.Uvarint(file[off:])
		if n <= 0 {
			t.Fatal("fixture envelope does not parse")
		}
		off += n
		return int(v)
	}
	var out []int
	for secs := uvarint(); secs > 0; secs-- {
		uvarint() // tag
		for n := uvarint(); n > 0; n-- {
			out = append(out, off)
			off++
		}
	}
	if off != len(file)-8 {
		t.Fatalf("fixture envelope ends at %d of %d bytes", off, len(file))
	}
	return out
}

// reseal recomputes the crc64 trailer, so a damaged payload gets past the
// envelope and it is the section layouts' own bounds that must refuse it.
func reseal(file []byte) {
	body := file[:len(file)-8]
	binary.LittleEndian.PutUint64(file[len(file)-8:], crc64.Checksum(body, crc64.MakeTable(crc64.ECMA)))
}

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// hostileDisk flips every bit of every section payload of a DLVS file in
// turn and reseals the trailer. Required of every flip: no panic; a refusal
// by snapshot.Decode or by install is one of the typed sentinels; a state
// Decode accepts re-encodes to exactly the damaged bytes, so nothing in a payload
// is ignored, defaulted or silently folded; and the eight decodes of one
// byte's flips together allocate at most 8 × (16 × the file size + 4 KB) — a
// count is checked against the bytes left before anything is sized from it,
// so the most a damaged one can cost is an element per remaining byte.
// (Measuring per byte, not per flip, keeps ReadMemStats off the critical
// path.)
func hostileDisk(t *testing.T, file []byte, install func(*snapshot.State) error) {
	t.Helper()
	typed := func(err error) bool {
		return errors.Is(err, snapshot.ErrTruncated) || errors.Is(err, snapshot.ErrCorrupt) ||
			errors.Is(err, snapshot.ErrMismatch)
	}
	stride := 1
	if raceEnabled || testing.Short() {
		stride = 5 // still every payload byte, at one or two rotating bits
	}
	budget := 8 * (16*uint64(len(file)) + 4096)
	// The sweep allocates a few GB in small pieces over a small live heap;
	// collecting less often halves its run time.
	defer debug.SetGCPercent(debug.SetGCPercent(800))
	accepted, refused, worst := 0, 0, uint64(0)
	var damaged [8][]byte
	var states [8]*snapshot.State
	var errs [8]error
	for i, off := range payloadBytes(t, file) {
		n := 0
		for bit := i % stride; bit < 8; bit += stride {
			damaged[n] = append(damaged[n][:0], file...)
			damaged[n][off] ^= 1 << bit
			reseal(damaged[n])
			n++
		}
		worst = max(worst, allocated(func() {
			for j := 0; j < n; j++ {
				states[j], errs[j] = snapshot.Decode(damaged[j])
			}
		}))
		for j := 0; j < n; j++ {
			err := errs[j]
			if err == nil {
				if again := snapshot.Encode(states[j]); !bytes.Equal(again, damaged[j]) {
					t.Fatalf("byte %d, flip %d: accepted, but re-encodes to different bytes (%d vs %d)",
						off, j, len(again), len(damaged[j]))
				}
				err = install(states[j])
			}
			switch {
			case err == nil:
				accepted++
			case typed(err):
				refused++
			default:
				t.Fatalf("byte %d, flip %d: untyped refusal: %v", off, j, err)
			}
		}
	}
	t.Logf("%d bytes: %d flips accepted with a byte-identical re-encode, %d refused; a byte's decodes allocated at most %d bytes",
		len(file), accepted, refused, worst)
	if accepted == 0 || refused == 0 {
		t.Error("the flips did not reach both arms of the check")
	}
	if !raceEnabled && worst > budget {
		t.Errorf("one byte's damaged decodes allocated %d bytes, budget %d", worst, budget)
	}
}

// warmSnapshot is the DLVS fixture: the configuration a universe was warmed
// under and the decoded and encoded snapshot of its warm state.
func warmSnapshot(t *testing.T) (Options, *snapshot.State, []byte) {
	t.Helper()
	u, _ := buildUniverse(t, 6)
	cfg := auditorConfig(u)
	ic, err := WarmInfra(u, cfg.Resolver)
	if err != nil {
		t.Fatal(err)
	}
	st, err := snapshot.Capture(u, cfg.Resolver, ic)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, st, snapshot.Encode(st)
}

// memoizedSigs counts the signatures the infrastructure zones hold.
func memoizedSigs(u *universe.Universe) int {
	n := 0
	for _, z := range u.InfraZones() {
		if st := z.ExportSigState(); st != nil {
			n += len(st.Entries)
		}
	}
	return n
}

// TestHostileDiskSnapshot is ROADMAP item 4's hostile-disk piece for DLVS,
// through Decode and Install: a flip that Decode accepts may still be
// refused by Install — as a mismatch (a fingerprint, a generation, an apex)
// or as structurally unsound (a status that is none, an RRSIG that no longer
// covers its key). The unsound ones are found after the mismatch checks, so
// each is replayed on a universe nothing has resolved on yet: refused there
// too, and not one signature left behind.
func TestHostileDiskSnapshot(t *testing.T) {
	cfg, _, file := warmSnapshot(t)
	twin, _ := buildUniverse(t, 6)
	replayed := 0
	install := func(st *snapshot.State) error {
		_, err := snapshot.Install(st, twin, cfg.Resolver)
		if errors.Is(err, snapshot.ErrCorrupt) {
			replayed++
			cold, _ := buildUniverse(t, 6)
			if _, err := snapshot.Install(st, cold, cfg.Resolver); !errors.Is(err, snapshot.ErrCorrupt) {
				t.Fatalf("Install on a cold twin: err = %v, want ErrCorrupt as on the warm one", err)
			}
			if n := memoizedSigs(cold); n != 0 {
				t.Fatalf("refused Install (%v) left %d signatures installed", err, n)
			}
		}
		return err
	}
	hostileDisk(t, file, install)
	if replayed == 0 {
		t.Error("no flip reached Install's structural checks")
	}
	t.Logf("%d structurally unsound states replayed on a cold universe", replayed)
}

// TestLoadOrWarmDamagedSnapshot takes damaged files through the boot path.
// Each boots live-warm with exactly one logged reason, and at the moment of
// the refusal — before the live warm-up memoizes signatures of its own — no
// zone holds an imported signature, including when the damage is found in
// the last zone of the state.
func TestLoadOrWarmDamagedSnapshot(t *testing.T) {
	cfg, st, file := warmSnapshot(t)
	flipped := func(resealed bool) []byte {
		for _, off := range payloadBytes(t, file) {
			b := append([]byte(nil), file...)
			b[off] ^= 0x80
			if !resealed {
				return b
			}
			reseal(b)
			if _, err := snapshot.Decode(b); err != nil {
				return b
			}
		}
		t.Fatal("no payload flip is refused by Decode")
		return nil
	}
	reencoded := func(damage func(*snapshot.State)) []byte {
		cp, err := snapshot.Decode(file)
		if err != nil {
			t.Fatal(err)
		}
		damage(cp)
		return snapshot.Encode(cp)
	}
	last := len(st.ZoneSigs) - 1
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"flipped bit, stale trailer", flipped(false), snapshot.ErrChecksum},
		{"cut in half", file[:len(file)/2], snapshot.ErrChecksum},
		{"flipped bit, trailer recomputed", flipped(true), nil},
		{"stale generation", reencoded(func(s *snapshot.State) { s.ZoneSigs[0].Generation++ }), snapshot.ErrMismatch},
		{"unsound signature in the last zone", reencoded(func(s *snapshot.State) {
			s.ZoneSigs[last].Entries[0].Key.Type ^= 0x4000
		}), snapshot.ErrCorrupt},
	} {
		cold, _ := buildUniverse(t, 6)
		path := filepath.Join(t.TempDir(), "warm.snap")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := snapshot.Load(path, cold, cfg.Resolver); err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: Load err = %v, want %v", tc.name, err, tc.want)
		}
		var logs []string
		sigsAtRefusal := -1
		ic, mode, err := LoadOrWarm(cold, cfg.Resolver, nil, path, func(format string, args ...any) {
			logs = append(logs, fmt.Sprintf(format, args...))
			sigsAtRefusal = memoizedSigs(cold)
		})
		if err != nil {
			t.Fatal(err)
		}
		if mode != BootLiveWarm || !ic.Sealed() || len(logs) != 1 {
			t.Errorf("%s: mode=%v sealed=%t logs=%q, want a live warm-up and one refusal reason",
				tc.name, mode, ic.Sealed(), logs)
		}
		if sigsAtRefusal != 0 {
			t.Errorf("%s: %d signatures installed when the snapshot was refused", tc.name, sigsAtRefusal)
		}
	}
}
