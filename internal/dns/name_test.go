package dns

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMakeName(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    Name
		wantErr error
	}{
		{name: "simple", in: "example.com", want: "example.com."},
		{name: "trailing dot", in: "example.com.", want: "example.com."},
		{name: "uppercase folded", in: "EXAMPLE.Com", want: "example.com."},
		{name: "root empty", in: "", want: Root},
		{name: "root dot", in: ".", want: Root},
		{name: "deep", in: "bbs.sub1.example.com", want: "bbs.sub1.example.com."},
		{name: "underscore and dash", in: "_dmarc.my-site.org", want: "_dmarc.my-site.org."},
		{name: "wildcard", in: "*.example.com", want: "*.example.com."},
		{name: "digits", in: "8.8.8.8.in-addr.arpa", want: "8.8.8.8.in-addr.arpa."},
		{name: "empty label", in: "a..b", wantErr: ErrEmptyLabel},
		{name: "leading dot", in: ".example.com", wantErr: ErrEmptyLabel},
		{name: "label too long", in: strings.Repeat("a", 64) + ".com", wantErr: ErrLabelTooLong},
		{name: "name too long", in: strings.Repeat("abcdefg.", 33) + "com", wantErr: ErrNameTooLong},
		{name: "bad char space", in: "ex ample.com", wantErr: ErrBadLabelChar},
		{name: "bad char slash", in: "a/b.com", wantErr: ErrBadLabelChar},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := MakeName(tt.in)
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Fatalf("MakeName(%q) error = %v, want %v", tt.in, err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("MakeName(%q) unexpected error: %v", tt.in, err)
			}
			if got != tt.want {
				t.Fatalf("MakeName(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNameLabels(t *testing.T) {
	n := MustName("www.example.com")
	want := []string{"www", "example", "com"}
	if got := n.Labels(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Labels() = %v, want %v", got, want)
	}
	if got := n.LabelCount(); got != 3 {
		t.Fatalf("LabelCount() = %d, want 3", got)
	}
	if got := Root.Labels(); got != nil {
		t.Fatalf("Root.Labels() = %v, want nil", got)
	}
	if got := Root.LabelCount(); got != 0 {
		t.Fatalf("Root.LabelCount() = %d, want 0", got)
	}
}

func TestNameParentChain(t *testing.T) {
	n := MustName("bbs.sub1.example.com")
	var chain []Name
	for !n.IsRoot() {
		chain = append(chain, n)
		n = n.Parent()
	}
	chain = append(chain, n)
	want := []Name{"bbs.sub1.example.com.", "sub1.example.com.", "example.com.", "com.", Root}
	if !reflect.DeepEqual(chain, want) {
		t.Fatalf("parent chain = %v, want %v", chain, want)
	}
	if Root.Parent() != Root {
		t.Fatalf("Root.Parent() = %q, want root", Root.Parent())
	}
}

func TestNameFirstLabel(t *testing.T) {
	if got := MustName("www.example.com").FirstLabel(); got != "www" {
		t.Fatalf("FirstLabel() = %q, want www", got)
	}
	if got := Root.FirstLabel(); got != "" {
		t.Fatalf("Root.FirstLabel() = %q, want empty", got)
	}
}

func TestIsSubdomainOf(t *testing.T) {
	tests := []struct {
		child, zone string
		want        bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "com", true},
		{"anything.org", ".", true},
		{"example.com", "ample.com", false}, // suffix match must be label-aligned
		{"com", "example.com", false},
		{"example.net", "example.com", false},
	}
	for _, tt := range tests {
		child, zone := MustName(tt.child), MustName(tt.zone)
		if got := child.IsSubdomainOf(zone); got != tt.want {
			t.Errorf("(%q).IsSubdomainOf(%q) = %t, want %t", child, zone, got, tt.want)
		}
	}
}

func TestPrependAndConcat(t *testing.T) {
	base := MustName("example.com")
	got, err := base.Prepend("www")
	if err != nil {
		t.Fatalf("Prepend: %v", err)
	}
	if got != "www.example.com." {
		t.Fatalf("Prepend = %q", got)
	}
	if _, err := base.Prepend("bad label"); err == nil {
		t.Fatal("Prepend with invalid label succeeded")
	}

	dlvZone := MustName("dlv.isc.org")
	cat, err := Concat("example.com", dlvZone)
	if err != nil {
		t.Fatalf("Concat: %v", err)
	}
	if cat != "example.com.dlv.isc.org." {
		t.Fatalf("Concat = %q", cat)
	}
	if cat2, err := Concat("", dlvZone); err != nil || cat2 != dlvZone {
		t.Fatalf("Concat empty prefix = %q, %v", cat2, err)
	}
	if cat3, err := Concat("example.com.", Root); err != nil || cat3 != "example.com." {
		t.Fatalf("Concat onto root = %q, %v", cat3, err)
	}
}

// TestPrependOnRoot: the root's text is the separator itself, so a label
// prepended to it must not grow a second dot ("*.." is an empty label).
func TestPrependOnRoot(t *testing.T) {
	for _, tt := range []struct {
		label   string
		want    Name
		wantErr error
	}{
		{"*", "*.", nil},
		{"com", "com.", nil},
		{"COM", "com.", nil},
		{"", "", ErrEmptyLabel},
		{strings.Repeat("a", 64), "", ErrLabelTooLong},
		{"bad label", "", ErrBadLabelChar},
	} {
		got, err := Root.Prepend(tt.label)
		if got != tt.want || !errors.Is(err, tt.wantErr) {
			t.Errorf("Root.Prepend(%q) = (%q, %v), want (%q, %v)", tt.label, got, err, tt.want, tt.wantErr)
		}
	}
}

func TestStripSuffix(t *testing.T) {
	tests := []struct {
		n, zone string
		want    string
		ok      bool
	}{
		{"example.com.dlv.isc.org", "dlv.isc.org", "example.com", true},
		{"dlv.isc.org", "dlv.isc.org", "", true},
		{"example.com", "dlv.isc.org", "", false},
		{"a.b.c", ".", "a.b.c", true},
	}
	for _, tt := range tests {
		got, ok := MustName(tt.n).StripSuffix(MustName(tt.zone))
		if ok != tt.ok || got != tt.want {
			t.Errorf("(%q).StripSuffix(%q) = (%q, %t), want (%q, %t)",
				tt.n, tt.zone, got, ok, tt.want, tt.ok)
		}
	}
}

func TestCanonicalCompare(t *testing.T) {
	// Ordered example straight from RFC 4034 §6.1.
	ordered := []Name{
		MustName("example"),
		MustName("a.example"),
		MustName("yljkjljk.a.example"),
		MustName("z.a.example"),
		MustName("zabc.a.example"),
		MustName("z.example"),
	}
	for i := range ordered {
		for j := range ordered {
			got := CanonicalCompare(ordered[i], ordered[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("CanonicalCompare(%q, %q) = %d, want %d",
					ordered[i], ordered[j], got, want)
			}
		}
	}
	if !CanonicalLess(Root, MustName("aaa")) {
		t.Error("root must sort before any name")
	}
}

// Covered reports whether name falls strictly between lower and next in
// canonical order, treating the interval as wrapping at the zone apex the
// way an NSEC chain does: if next <= lower the span wraps around the end of
// the zone. It is the definition of NSEC coverage written directly on
// CanonicalCompare, kept as a test oracle.
func Covered(name, lower, next Name) bool {
	if CanonicalCompare(lower, next) < 0 {
		return CanonicalCompare(lower, name) < 0 && CanonicalCompare(name, next) < 0
	}
	// Wrap-around span (last NSEC in the chain points back to the apex).
	return CanonicalCompare(lower, name) < 0 || CanonicalCompare(name, next) < 0
}

func TestCovered(t *testing.T) {
	lower := MustName("alpha.example")
	next := MustName("delta.example")
	tests := []struct {
		name string
		want bool
	}{
		{"beta.example", true},
		{"alpha.example", false}, // exact match is not covered
		{"delta.example", false},
		{"zeta.example", false},
	}
	for _, tt := range tests {
		if got := Covered(MustName(tt.name), lower, next); got != tt.want {
			t.Errorf("Covered(%q) = %t, want %t", tt.name, got, tt.want)
		}
	}
	// Wrap-around span: last NSEC points back to the apex.
	apex := MustName("example")
	last := MustName("zeta.example")
	if !Covered(MustName("zz.example"), last, apex) {
		t.Error("wrap-around span must cover names after the last owner")
	}
	if Covered(MustName("beta.example"), last, apex) {
		t.Error("wrap-around span must not cover names inside the chain")
	}
}

func TestWireLen(t *testing.T) {
	if got := Root.WireLen(); got != 1 {
		t.Fatalf("Root.WireLen() = %d, want 1", got)
	}
	// "example.com." → 1+7+1+3+1 = 13
	if got := MustName("example.com").WireLen(); got != 13 {
		t.Fatalf("WireLen = %d, want 13", got)
	}
}

// randomName produces a valid random name for property tests.
func randomName(r *rand.Rand) Name {
	labelCount := 1 + r.Intn(4)
	labels := make([]string, labelCount)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-"
	for i := range labels {
		n := 1 + r.Intn(12)
		var sb strings.Builder
		for j := 0; j < n; j++ {
			sb.WriteByte(alphabet[r.Intn(len(alphabet)-1)]) // avoid '-' often enough
		}
		labels[i] = sb.String()
	}
	return MustName(strings.Join(labels, "."))
}

func TestCanonicalOrderProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	// Antisymmetry and consistency with equality.
	prop := func(seedA, seedB int64) bool {
		a := randomName(rand.New(rand.NewSource(seedA)))
		b := randomName(rand.New(rand.NewSource(seedB)))
		c1, c2 := CanonicalCompare(a, b), CanonicalCompare(b, a)
		if a == b {
			return c1 == 0 && c2 == 0
		}
		return c1 == -c2 && c1 != 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalSortTransitivity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	names := make([]Name, 200)
	for i := range names {
		names[i] = randomName(r)
	}
	sort.Slice(names, func(i, j int) bool { return CanonicalLess(names[i], names[j]) })
	for i := 1; i < len(names); i++ {
		if CanonicalLess(names[i], names[i-1]) {
			t.Fatalf("sort produced out-of-order pair: %q before %q", names[i-1], names[i])
		}
	}
}

func TestCoveredSpanProperty(t *testing.T) {
	// In a sorted chain of distinct names, each name is covered by exactly
	// the span it falls into and no other.
	r := rand.New(rand.NewSource(11))
	seen := map[Name]bool{}
	var chain []Name
	for len(chain) < 50 {
		n := randomName(r)
		if !seen[n] {
			seen[n] = true
			chain = append(chain, n)
		}
	}
	sort.Slice(chain, func(i, j int) bool { return CanonicalLess(chain[i], chain[j]) })
	for trial := 0; trial < 200; trial++ {
		probe := randomName(r)
		if seen[probe] {
			continue
		}
		covers := 0
		for i := range chain {
			next := chain[(i+1)%len(chain)]
			if Covered(probe, chain[i], next) {
				covers++
			}
		}
		if covers != 1 {
			t.Fatalf("probe %q covered by %d spans, want exactly 1", probe, covers)
		}
	}
}

// TestCanonicalCompareMatchesReference pins the allocation-free comparison
// against the straightforward split-into-labels definition of RFC 4034
// §6.1, over random names plus the shared-prefix shapes the in-place walk
// could get wrong.
func TestCanonicalCompareMatchesReference(t *testing.T) {
	reference := func(a, b Name) int {
		al, bl := a.Labels(), b.Labels()
		for i := 1; ; i++ {
			ai, bi := len(al)-i, len(bl)-i
			switch {
			case ai < 0 && bi < 0:
				return 0
			case ai < 0:
				return -1
			case bi < 0:
				return 1
			}
			if c := strings.Compare(al[ai], bl[bi]); c != 0 {
				return c
			}
		}
	}
	fixed := []Name{
		Root, MustName("com"), MustName("example.com"),
		MustName("a.example.com"), MustName("aa.example.com"),
		MustName("ab.x"), MustName("abc.x"), MustName("b.x"),
		MustName("x"), MustName("x.x"), MustName("*.example.com"),
	}
	r := rand.New(rand.NewSource(3))
	names := append([]Name{}, fixed...)
	for i := 0; i < 150; i++ {
		names = append(names, randomName(r))
	}
	for _, a := range names {
		for _, b := range names {
			if got, want := CanonicalCompare(a, b), reference(a, b); got != want {
				t.Fatalf("CanonicalCompare(%q, %q) = %d, reference says %d", a, b, got, want)
			}
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		CanonicalCompare(fixed[3], fixed[4])
	}); got != 0 {
		t.Errorf("CanonicalCompare allocates %.1f times per call, want 0", got)
	}
}

// TestSortKeyOrder walks AppendSortKey over the names where a byte-string
// form of canonical order could go wrong — the root, label bytes that sort
// below the dot, a label that is a prefix of its neighbour, and the length
// limits — and requires memcmp on keys to agree with CanonicalCompare, and
// key-prefix with IsSubdomainOf, for every pair.
func TestSortKeyOrder(t *testing.T) {
	label63 := strings.Repeat("z", 63)
	// 255 octets on the wire: three 63-byte labels and one of 61.
	name255 := MustName(strings.Join([]string{strings.Repeat("a", 61), label63, label63, label63}, "."))
	if name255.WireLen() != 255 {
		t.Fatalf("name255 is %d octets on the wire", name255.WireLen())
	}
	// Listed in canonical order.
	ordered := []Name{
		Root,
		MustName("com"),
		MustName("*.com"),
		MustName("-.com"),
		MustName("_.com"),
		MustName("a.com"),
		MustName("b.a.com"),
		MustName("a*b.com"),
		MustName("a-b.com"),
		MustName("a_b.com"),
		MustName("ab.com"),
		MustName(label63[:62] + ".com"),
		MustName(label63 + ".com"),
		MustName("a." + label63 + ".com"),
		MustName("com-"),
		MustName("como"),
		name255,
	}
	keys := make([][]byte, len(ordered))
	for i, n := range ordered {
		keys[i] = AppendSortKey(nil, n)
		want := len(n)
		if n.IsRoot() {
			want = 0
		}
		if len(keys[i]) != want {
			t.Errorf("key of %q is %d bytes, want %d", n, len(keys[i]), want)
		}
	}
	if want := []byte("com\x00a-b\x00"); !bytes.Equal(AppendSortKey(nil, MustName("a-b.com")), want) {
		t.Errorf("key(a-b.com.) = %q, want %q", AppendSortKey(nil, MustName("a-b.com")), want)
	}
	for i, a := range ordered {
		for j, b := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := CanonicalCompare(a, b); got != want {
				t.Fatalf("table out of canonical order: CanonicalCompare(%q, %q) = %d, want %d", a, b, got, want)
			}
			if got := bytes.Compare(keys[i], keys[j]); got != want {
				t.Errorf("bytes.Compare(key(%q), key(%q)) = %d, want %d", a, b, got, want)
			}
			if got, want := bytes.HasPrefix(keys[i], keys[j]), a.IsSubdomainOf(b); got != want {
				t.Errorf("HasPrefix(key(%q), key(%q)) = %t, IsSubdomainOf = %t", a, b, got, want)
			}
		}
	}
	// Appending extends dst in place and, into a buffer that fits, does not
	// allocate: the probe key of a lookup lives on the caller's stack.
	var buf [maxNameLen]byte
	if got := testing.AllocsPerRun(100, func() {
		AppendSortKey(buf[:0], name255)
	}); got != 0 {
		t.Errorf("AppendSortKey into a sized buffer allocates %.1f times, want 0", got)
	}
	if got := AppendSortKey([]byte("x"), MustName("a.b")); string(got) != "xb\x00a\x00" {
		t.Errorf("AppendSortKey did not append to dst: %q", got)
	}
}
