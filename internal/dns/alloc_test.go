package dns

import (
	"fmt"
	"testing"
)

// Allocation budgets for the wire-codec hot path. These are ceilings, not
// targets: a regression that pushes any operation above its budget fails
// loudly. Budgets assume a warmed name-intern table (steady experiment
// state), which the tests arrange before measuring.
const (
	// allocBudgetEncode: Encode allocates exactly once — the copy-out of
	// the pooled builder's buffer. Everything else (builder, compression
	// map) comes from the pool.
	allocBudgetEncode = 1
	// allocBudgetAppendEncode: AppendEncode into a pre-sized destination
	// allocates nothing; the encoder writes through the pooled builder and
	// appends into caller memory.
	allocBudgetAppendEncode = 0
	// allocBudgetWireSize: WireSize runs the encoder in measure mode —
	// offsets advance, no bytes are written, nothing escapes.
	allocBudgetWireSize = 0
	// allocBudgetDecodeQuestion: the question-only decoder resolves the
	// owner name through the intern table and returns a value type.
	allocBudgetDecodeQuestion = 0
	// allocBudgetDecodeMessage: a full decode of the signed sample
	// response (question + 2 answers + authority + additional + OPT)
	// still allocates the Message, section slices, and per-RR RData
	// values; names come from the intern table. The naive decoder in
	// naive_decode_test.go, which allocates per label, needs many more.
	allocBudgetDecodeMessage = 16
	// allocBudgetAppendRData: one canonical encoding of every fixture
	// payload into a pre-sized destination. The NSEC and NSEC3 type
	// bitmaps each sort a copy of their type list; nothing else escapes,
	// the stack builder included.
	allocBudgetAppendRData = 2
)

func measureAllocs(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	if got := testing.AllocsPerRun(200, fn); got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, budget)
	}
}

func TestAllocationBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	m := sampleMessage()
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Warm the intern table so steady-state behavior is measured.
	if _, err := DecodeMessage(wire); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(wire)+64)

	measureAllocs(t, "Encode", allocBudgetEncode, func() {
		if _, err := m.Encode(); err != nil {
			t.Fatal(err)
		}
	})
	measureAllocs(t, "AppendEncode", allocBudgetAppendEncode, func() {
		if _, err := m.AppendEncode(dst[:0]); err != nil {
			t.Fatal(err)
		}
	})
	measureAllocs(t, "WireSize", allocBudgetWireSize, func() {
		if _, err := m.WireSize(); err != nil {
			t.Fatal(err)
		}
	})
	measureAllocs(t, "DecodeQuestion", allocBudgetDecodeQuestion, func() {
		if _, err := DecodeQuestion(wire); err != nil {
			t.Fatal(err)
		}
	})
	measureAllocs(t, "DecodeMessage", allocBudgetDecodeMessage, func() {
		if _, err := DecodeMessage(wire); err != nil {
			t.Fatal(err)
		}
	})
	payloads := fixturePayloads()
	rdst := make([]byte, 0, 4096)
	measureAllocs(t, "AppendRData", allocBudgetAppendRData, func() {
		out := rdst[:0]
		for _, d := range payloads {
			var err error
			if out, err = AppendRData(out, d); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestInternMissAllocations pins what a first-seen name costs the intern
// table: the text MakeName validates and the Name it returns. The table's
// key shares the Name's bytes, so there is no third string; text that is not
// already canonical (here: uppercase) still keys on its own copy and resolves
// on the next ask.
func TestInternMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	const runs = 200
	texts := make([][]byte, runs+1) // AllocsPerRun calls fn once to warm up
	for i := range texts {
		texts[i] = []byte(fmt.Sprintf("intern-miss-%04d.alloc.test", i))
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := internName(texts[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	// Map growth is amortized below one allocation per insert.
	if got > 2 {
		t.Errorf("internName miss: %.1f allocs/op, want 2", got)
	}
	for _, text := range texts {
		n, err := internName(text)
		if err != nil || n != Name(string(text)+".") {
			t.Fatalf("internName(%q) = %q, %v", text, n, err)
		}
	}
	if got := testing.AllocsPerRun(runs, func() { _, _ = internName(texts[0]) }); got != 0 {
		t.Errorf("internName hit: %.1f allocs/op, want 0", got)
	}
	for i := 0; i < 2; i++ {
		if n, err := internName([]byte("MiXed.Alloc.Test")); err != nil || n != "mixed.alloc.test." {
			t.Fatalf("internName(mixed case) = %q, %v", n, err)
		}
	}
}

// TestDecodeQuestion pins the question-only fast decoder against the full
// decoder for every fixture message that carries a question.
func TestDecodeQuestion(t *testing.T) {
	for name, m := range fixtureMessages() {
		wire, err := m.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		q, err := DecodeQuestion(wire)
		if err != nil {
			t.Fatalf("%s: DecodeQuestion: %v", name, err)
		}
		if len(m.Question) == 0 {
			if q != (Question{}) {
				t.Errorf("%s: question-less message decoded to %+v", name, q)
			}
			continue
		}
		if q != m.Question[0] {
			t.Errorf("%s: DecodeQuestion = %+v, want %+v", name, q, m.Question[0])
		}
	}
	if _, err := DecodeQuestion([]byte{1, 2, 3}); err == nil {
		t.Error("DecodeQuestion accepted a truncated header")
	}
}

// TestMessageClone verifies clones are independent where it matters for the
// packet cache: section slices must not alias, so appends on a served
// response (e.g. the resolver's CNAME chase) never corrupt the cached copy.
func TestMessageClone(t *testing.T) {
	m := sampleMessage()
	c := m.Clone()
	if c == m {
		t.Fatal("Clone returned the receiver")
	}
	cWire, err := c.Encode()
	if err != nil {
		t.Fatal(err)
	}
	mWire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(cWire) != string(mWire) {
		t.Fatal("clone encodes differently from original")
	}
	// Mutating the clone's header and appending to its sections must leave
	// the original untouched.
	c.Header.ID ^= 0xFFFF
	c.Answer = append(c.Answer, c.Answer[0])
	c.EDNS.Padding = 99
	if m.Header.ID == c.Header.ID {
		t.Error("header mutation leaked into original")
	}
	if len(m.Answer) == len(c.Answer) {
		t.Error("answer append leaked into original")
	}
	if m.EDNS.Padding == 99 {
		t.Error("EDNS mutation leaked into original")
	}
	if (&Message{}).Clone() == nil {
		t.Error("Clone of empty message is nil")
	}
}
