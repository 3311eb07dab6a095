// Package dns implements the DNS substrate used throughout the repository:
// domain names, record types, resource records, messages, and the RFC 1035
// wire codec (including name compression and EDNS0).
//
// The package is self-contained and uses only the standard library. It
// implements the subset of DNS needed to reproduce the paper faithfully:
// ordinary lookups, DNSSEC record types (DNSKEY, DS, RRSIG, NSEC, NSEC3),
// the DLV record type (32769, RFC 4431), EDNS0 with the DO bit, and the
// reserved header Z bit used by the paper's "DLV-aware DNS" remedy.
package dns

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Name is a fully-qualified, canonicalized domain name.
//
// Invariants (established by MakeName / MustName and preserved by all
// methods): the text is lowercase, ends with a trailing dot, and every label
// is 1..63 bytes with a total length of at most 255 bytes. The DNS root is
// the single dot ".".
type Name string

// Root is the DNS root name.
const Root Name = "."

// Maximum sizes from RFC 1035 §2.3.4.
const (
	maxLabelLen = 63
	maxNameLen  = 255
)

// Errors returned by name construction and manipulation.
var (
	ErrEmptyLabel   = errors.New("dns: empty label")
	ErrLabelTooLong = errors.New("dns: label exceeds 63 octets")
	ErrNameTooLong  = errors.New("dns: name exceeds 255 octets")
	ErrBadLabelChar = errors.New("dns: label contains prohibited character")
)

// MakeName parses and canonicalizes a textual domain name. The input may or
// may not carry a trailing dot; it is lowercased and validated. Escapes are
// not supported: a dot always separates labels.
func MakeName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = strings.ToLower(strings.TrimSuffix(s, "."))
	if len(s)+1 > maxNameLen {
		return "", fmt.Errorf("%w: %q", ErrNameTooLong, s)
	}
	start := 0
	for i := 0; i <= len(s); i++ {
		if i != len(s) && s[i] != '.' {
			if !isNameChar(s[i]) {
				return "", fmt.Errorf("%w: %q in %q", ErrBadLabelChar, string(s[i]), s)
			}
			continue
		}
		label := s[start:i]
		if label == "" {
			return "", fmt.Errorf("%w: %q", ErrEmptyLabel, s)
		}
		if len(label) > maxLabelLen {
			return "", fmt.Errorf("%w: %q", ErrLabelTooLong, label)
		}
		start = i + 1
	}
	return Name(s + "."), nil
}

// isNameChar reports whether c may appear inside a label. We accept the
// hostname alphabet plus underscore (used by service labels and by DNSSEC
// tooling) and '*' (wildcards); this is a superset of the hostname rule and
// a subset of what the wire format technically permits.
func isNameChar(c byte) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		return true
	case c == '-' || c == '_' || c == '*':
		return true
	default:
		return false
	}
}

// MustName is MakeName for constant inputs; it panics on invalid input and
// is intended for tests and literals.
func MustName(s string) Name {
	n, err := MakeName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// IsRoot reports whether n is the DNS root.
func (n Name) IsRoot() bool { return n == Root || n == "" }

// String returns the canonical textual form (always with a trailing dot).
func (n Name) String() string {
	if n == "" {
		return "."
	}
	return string(n)
}

// Labels returns the labels of n from leftmost to rightmost. The root has no
// labels.
func (n Name) Labels() []string {
	if n.IsRoot() {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(n), "."), ".")
}

// LabelCount returns the number of labels in n.
func (n Name) LabelCount() int {
	if n.IsRoot() {
		return 0
	}
	return strings.Count(string(n), ".")
}

// Parent returns n with its leftmost label removed; the parent of the root
// is the root itself.
func (n Name) Parent() Name {
	if n.IsRoot() {
		return Root
	}
	s := string(n)
	i := strings.IndexByte(s, '.')
	rest := s[i+1:]
	if rest == "" {
		return Root
	}
	return Name(rest)
}

// FirstLabel returns the leftmost label of n, or "" for the root.
func (n Name) FirstLabel() string {
	if n.IsRoot() {
		return ""
	}
	s := string(n)
	return s[:strings.IndexByte(s, '.')]
}

// IsSubdomainOf reports whether n is equal to or underneath zone.
func (n Name) IsSubdomainOf(zone Name) bool {
	if zone.IsRoot() {
		return true
	}
	if n == zone {
		return true
	}
	return strings.HasSuffix(string(n), "."+string(zone))
}

// Prepend returns label.n. It validates the new label.
func (n Name) Prepend(label string) (Name, error) {
	if n.IsRoot() {
		// The root's text is the separator itself: label + "." + "." would
		// read as an empty label. MakeName("") is the root, not an error.
		if label == "" {
			return "", fmt.Errorf("%w: %q", ErrEmptyLabel, label)
		}
		return MakeName(label)
	}
	if prefixCanonical(label) {
		s := label + "." + string(n)
		if len(s) > maxNameLen {
			return "", fmt.Errorf("%w: %q", ErrNameTooLong, s)
		}
		return Name(s), nil
	}
	return MakeName(label + "." + string(n))
}

// Concat joins a relative prefix (which may itself contain dots) onto a
// suffix name, e.g. Concat("example.com", dlvZone) for look-aside queries.
func Concat(prefix string, suffix Name) (Name, error) {
	prefix = strings.TrimSuffix(prefix, ".")
	if prefix == "" {
		return suffix, nil
	}
	if suffix.IsRoot() {
		return MakeName(prefix)
	}
	// Fast path: a prefix that is already canonical joins the
	// dot-terminated suffix in one concatenation. Going through MakeName
	// would trim the suffix's trailing dot and re-add it, paying a second
	// copy — and this is the look-aside name construction hot path.
	if prefixCanonical(prefix) {
		s := prefix + "." + string(suffix)
		if len(s) > maxNameLen {
			return "", fmt.Errorf("%w: %q", ErrNameTooLong, s)
		}
		return Name(s), nil
	}
	return MakeName(prefix + "." + string(suffix))
}

// prefixCanonical reports whether a relative (no trailing dot) prefix is
// made of valid lowercase labels, i.e. joining it onto a canonical suffix
// needs no further normalization. Anything else — uppercase, bad characters,
// empty or oversized labels — falls back to MakeName for normalization or a
// precise error.
func prefixCanonical(prefix string) bool {
	if prefix == "" {
		return false
	}
	start := 0
	for i := 0; i <= len(prefix); i++ {
		if i != len(prefix) && prefix[i] != '.' {
			if !isNameChar(prefix[i]) {
				return false
			}
			continue
		}
		if i == start || i-start > maxLabelLen {
			return false
		}
		start = i + 1
	}
	return true
}

// StripSuffix returns the part of n above zone, as a relative textual name
// without a trailing dot, and whether n was inside zone. For n == zone it
// returns "" and true.
func (n Name) StripSuffix(zone Name) (string, bool) {
	if !n.IsSubdomainOf(zone) {
		return "", false
	}
	if n == zone {
		return "", true
	}
	s := strings.TrimSuffix(string(n), ".")
	if zone.IsRoot() {
		return s, true
	}
	return strings.TrimSuffix(s, "."+strings.TrimSuffix(string(zone), ".")), true
}

// WireLen returns the uncompressed wire-format length of n in octets.
func (n Name) WireLen() int {
	if n.IsRoot() {
		return 1
	}
	return len(n) + 1
}

// CanonicalCompare orders names per RFC 4034 §6.1 ("canonical DNS name
// order"): labels are compared right to left as case-insensitive byte
// strings, and absence of a label sorts before any label. It returns -1, 0,
// or +1. This ordering underpins the NSEC chain and span-covering logic.
//
// Names are canonically lowercase (the MakeName invariant), so labels
// compare as plain byte strings. The walk slices labels off the ends of
// both names in place and does not allocate. It is the general comparator;
// the two large sorted-name indexes (a zone's synthesized owners, the
// resolver's NSEC span store) hold AppendSortKey keys instead, because this
// walk re-finds the label boundaries of both names on every call.
func CanonicalCompare(a, b Name) int {
	if a == b {
		return 0
	}
	// ad/bd index the dot that closes each name's next unread label
	// (rightmost first); negative means that name is exhausted.
	ad, bd := len(a)-1, len(b)-1
	if a.IsRoot() {
		ad = -1
	}
	if b.IsRoot() {
		bd = -1
	}
	for {
		switch {
		case ad < 0 && bd < 0:
			return 0
		case ad < 0:
			return -1
		case bd < 0:
			return 1
		}
		as := strings.LastIndexByte(string(a[:ad]), '.') + 1
		bs := strings.LastIndexByte(string(b[:bd]), '.') + 1
		if c := strings.Compare(string(a[as:ad]), string(b[bs:bd])); c != 0 {
			return c
		}
		ad, bd = as-1, bs-1
	}
}

// CanonicalLess reports whether a sorts strictly before b in canonical
// order.
func CanonicalLess(a, b Name) bool { return CanonicalCompare(a, b) < 0 }

// AppendSortKey appends name's canonical-order key to dst and returns the
// extended slice: the labels right to left, each closed by a 0x00 byte. The
// root's key is empty; "a-b.com." keys as "com\x00a-b\x00".
//
// The key is the same order as CanonicalCompare in a form memcmp can read:
// for any names a and b, bytes.Compare on their keys equals
// CanonicalCompare(a, b), and key(b) is a prefix of key(a) exactly when
// a.IsSubdomainOf(b). The terminator has to be 0x00 rather than the dot:
// every byte a label may hold is at least '*' (isNameChar), so a label that
// ends sorts before any label it is a prefix of, whereas '-' and '*' sort
// below '.' and would put "a-b.com." before "b.a.com.". A key is exactly as
// long as its name (255 bytes at most), so a probe key fits a stack buffer.
// Large sorted-name indexes search on stored keys instead of re-finding
// label boundaries at every comparison.
func AppendSortKey(dst []byte, name Name) []byte {
	if name.IsRoot() {
		return dst
	}
	// end indexes the dot that closes the next unread label, rightmost first.
	for end := len(name) - 1; end > 0; {
		start := strings.LastIndexByte(string(name[:end]), '.') + 1
		dst = append(dst, name[start:end]...)
		dst = append(dst, 0)
		end = start - 1
	}
	return dst
}

// NameFromSortKey is the exact inverse of AppendSortKey: it rebuilds the name
// a key was made from, so an index that stores keys need not store the names
// beside them. key must be AppendSortKey output; the empty key is the root.
func NameFromSortKey(key []byte) Name {
	if len(key) == 0 {
		return Root
	}
	var buf [maxNameLen]byte
	out := buf[:0]
	// end indexes the 0x00 that closes the next unread label; the key's last
	// label is the name's first.
	for end := len(key) - 1; end > 0; {
		start := bytes.LastIndexByte(key[:end], 0) + 1
		out = append(out, key[start:end]...)
		out = append(out, '.')
		end = start - 1
	}
	return Name(out)
}
