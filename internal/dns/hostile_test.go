package dns

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite this package's testdata goldens from this tree")

// hostileEntry is one message a careless decoder gets wrong, with the
// sentinel DecodeMessage must refuse it under.
type hostileEntry struct {
	name string
	wire []byte
	want error
}

// wireMsg assembles a message from header counts and raw section bytes.
func wireMsg(qd, an, ns, ar uint16, body ...[]byte) []byte {
	out := []byte{0x12, 0x34, 0x01, 0x00}
	for _, c := range []uint16{qd, an, ns, ar} {
		out = binary.BigEndian.AppendUint16(out, c)
	}
	for _, b := range body {
		out = append(out, b...)
	}
	return out
}

// wireLabels encodes labels as length-prefixed octets, without the
// terminating zero, so entries can end a name however they need to.
func wireLabels(labels ...string) []byte {
	var out []byte
	for _, l := range labels {
		out = append(out, byte(len(l)))
		out = append(out, l...)
	}
	return out
}

// rrHead is a record's fixed fields after a root owner name.
func rrHead(t Type, rdlen uint16) []byte {
	out := []byte{0}
	for _, v := range []uint16{uint16(t), uint16(ClassIN), 0, 300, rdlen} {
		out = binary.BigEndian.AppendUint16(out, v)
	}
	return out
}

// aRR is a well-formed root-owned A record.
func aRR() []byte { return append(rrHead(TypeA, 4), 192, 0, 2, 1) }

// qTail is a question's type and class.
var qTail = []byte{0, 1, 0, 1}

// hostileCorpus lists the classic decoder mistakes: the checks a textbook
// decoder leaves out (SNIPPETS.md snippets 1 and 2), each as a message that
// exploits the missing check. Every entry is refused; none may panic or
// allocate from a forged count.
func hostileCorpus() []hostileEntry {
	long := strings.Repeat("a", 63)
	return []hostileEntry{
		{"header-short", []byte{0x12, 0x34, 0x01, 0x00, 0, 1}, ErrTruncatedMessage},
		// A pointer to itself, and a backwards pointer the labels it
		// reaches lead straight back to: only the hop limit stops it.
		{"pointer-self", wireMsg(1, 0, 0, 0, []byte{0xC0, 12}, qTail), ErrBadPointer},
		{"pointer-loop", wireMsg(1, 0, 0, 0, wireLabels("a"), []byte{0xC0, 12}, qTail), ErrBadPointer},
		// A pointer ahead of itself, at a well-formed name.
		{"pointer-forward", wireMsg(1, 0, 0, 0, []byte{0xC0, 18}, qTail, wireLabels("x"), []byte{0}), ErrBadPointer},
		// Counts far above what the packet holds must fail on the bytes,
		// not allocate from the header.
		{"counts-questions", wireMsg(0xFFFF, 0, 0, 0, wireLabels("a"), []byte{0}, qTail), ErrTruncatedMessage},
		{"counts-records", wireMsg(0, 0xFFFF, 0xFFFF, 0xFFFF, aRR()), ErrTruncatedMessage},
		// A question that fails to parse stops the decode; the questions
		// after it are never read as if it had been skipped.
		{"question-fails-then-more", wireMsg(3, 0, 0, 0,
			[]byte{0x80, 'a', 0}, qTail,
			wireLabels("b"), []byte{0}, qTail,
			wireLabels("c"), []byte{0}, qTail), ErrBadPointer},
		// A label holding a dot, which joined into text would read as more
		// labels: the root, two labels, or an empty one between two.
		{"dot-label-root", wireMsg(1, 0, 0, 0, []byte{1, '.', 0}, qTail), ErrBadLabelChar},
		{"dot-label-two", wireMsg(1, 0, 0, 0, []byte{3, 'a', '.', 'b', 0}, qTail), ErrBadLabelChar},
		{"dot-label-empty", wireMsg(1, 0, 0, 0, wireLabels("a", ".", "b"), []byte{0}, qTail), ErrBadLabelChar},
		// Label-length octets above 63: the reserved 01 and 10 label types,
		// and 0xFF, which reads as a pointer past the end.
		{"label-octet-64", wireMsg(1, 0, 0, 0, []byte{64}, bytes.Repeat([]byte{'a'}, 64), []byte{0}, qTail), ErrBadPointer},
		{"label-octet-128", wireMsg(1, 0, 0, 0, []byte{128, 'a', 0}, qTail), ErrBadPointer},
		{"label-octet-255", wireMsg(1, 0, 0, 0, []byte{255, 255, 0}, qTail), ErrBadPointer},
		{"name-over-255", wireMsg(1, 0, 0, 0, wireLabels(long, long, long, long, long), []byte{0}, qTail), ErrNameTooLong},
		// A question name at the 255-octet limit, then an owner that
		// prepends a label to it through a pointer: 259 octets in all.
		{"name-over-255-by-pointer", wireMsg(1, 1, 0, 0,
			wireLabels(long, long, long, strings.Repeat("a", 61)), []byte{0}, qTail,
			wireLabels("abc"), []byte{0xC0, 12}, rrHead(TypeA, 4)[1:], []byte{192, 0, 2, 1}), ErrNameTooLong},
		// RDLENGTH runs past the end of the message.
		{"rr-truncated-mid-rdata", wireMsg(0, 1, 0, 0, rrHead(TypeA, 4), []byte{192, 0}), ErrTruncatedMessage},
		{"rr-truncated-mid-header", wireMsg(0, 1, 0, 0, rrHead(TypeA, 4)[:7]), ErrTruncatedMessage},
		// RDATA shorter than its type's fixed fields, with another record
		// after it for a careless read to run into. The error names the
		// overrun (errRDataOverrun is an ErrBadRData).
		{"rdata-short-a", wireMsg(0, 2, 0, 0, rrHead(TypeA, 2), []byte{192, 0}, aRR()), errRDataOverrun},
		{"rdata-short-mx", wireMsg(0, 2, 0, 0, rrHead(TypeMX, 1), []byte{0}, aRR()), errRDataOverrun},
		{"rdata-short-soa", wireMsg(0, 2, 0, 0, rrHead(TypeSOA, 12), []byte{0, 0}, make([]byte, 10), aRR()), errRDataOverrun},
		{"rdata-short-rrsig", wireMsg(0, 2, 0, 0, rrHead(TypeRRSIG, 10), make([]byte, 10), aRR()), errRDataOverrun},
		{"rdata-short-nsec3-salt", wireMsg(0, 2, 0, 0, rrHead(TypeNSEC3, 6), []byte{1, 0, 0, 10, 40, 0xAA}, aRR()), errRDataOverrun},
		{"rdata-name-past-rdlength", wireMsg(0, 2, 0, 0, rrHead(TypeNS, 3), wireLabels("ns"), []byte{0}, aRR()), errRDataOverrun},
		{"opt-option-overrun", wireMsg(0, 0, 0, 1, rrHead(TypeOPT, 4), []byte{0, 12, 0, 9}), errRDataOverrun},
	}
}

// hostileCorpusFile is where the corpus is written for the transport
// package, which fires it at live listeners.
const hostileCorpusFile = "testdata/hostile.txt"

// hostileDecodeBytes bounds what refusing one corpus entry may allocate: a
// Message, a clamped section slice and a wrapped error. A decoder that
// sizes a section from the header count instead allocates ~2.6 MB.
const hostileDecodeBytes = 4 << 10

// negativeCount matches a negative number in an error text: a read that
// overran its record once surfaced as "-2 trailing rdata octets".
var negativeCount = regexp.MustCompile(`-\d`)

// TestHostileCorpus refuses every entry under its sentinel, without a panic,
// a negative count in the error, or more than bounded allocation, and keeps
// testdata/hostile.txt in step with the corpus (-update rewrites it).
func TestHostileCorpus(t *testing.T) {
	var file strings.Builder
	file.WriteString("# Hostile wire corpus: messages the DNS decoder must refuse, one per line as\n" +
		"# \"<name> <hex>\". Generated from internal/dns/hostile_test.go by\n" +
		"# `go test ./internal/dns -run TestHostileCorpus -update`.\n")
	for _, e := range hostileCorpus() {
		fmt.Fprintf(&file, "%s %s\n", e.name, hex.EncodeToString(e.wire))
		_, err := DecodeMessage(e.wire)
		if !errors.Is(err, e.want) || negativeCount.MatchString(fmt.Sprint(err)) {
			t.Errorf("%s: err = %v, want %v", e.name, err, e.want)
		}
		if _, nerr := naiveDecode(e.wire); nerr == nil {
			t.Errorf("%s: the naive decoder accepts it", e.name)
		}
		if raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(50, func() { _, _ = DecodeMessage(e.wire) }); got > allocBudgetDecodeMessage {
			t.Errorf("%s: %.0f allocs per refusal, more than a full decode's %d", e.name, got, allocBudgetDecodeMessage)
		}
		if got := allocBytes(func() { _, _ = DecodeMessage(e.wire) }); got > hostileDecodeBytes {
			t.Errorf("%s: %d bytes allocated per refusal, want <= %d", e.name, got, hostileDecodeBytes)
		}
	}
	checkGolden(t, hostileCorpusFile, file.String())
}

// allocBytes is the heap bytes one call of fn allocates, averaged over 50.
func allocBytes(fn func()) uint64 {
	const runs = 50
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// checkGolden compares got with the file at path, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != got {
		t.Errorf("%s is stale; rerun with -update and read the diff\ngot:\n%s", path, got)
	}
}

// TestRDataGolden pins the canonical RDATA bytes of every fixture payload,
// so the encoder is held to fixed bytes and not only to its own decoder.
func TestRDataGolden(t *testing.T) {
	var got strings.Builder
	for i, d := range fixturePayloads() {
		wire, err := EncodeRData(d)
		if err != nil {
			t.Fatalf("%d %s: %v", i, d.RType(), err)
		}
		fmt.Fprintf(&got, "%d %s %s\n", i, d.RType(), hex.EncodeToString(wire))
	}
	checkGolden(t, "testdata/rdata.golden", got.String())
}
