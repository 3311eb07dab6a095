package dnssec

// Status is the outcome of DNSSEC validation for a response, per RFC 4033
// §5: a resolver returns the answer for Secure and Insecure, and SERVFAIL
// for Bogus and Indeterminate. It is a byte, so the resolver's cache
// entries hold it in one.
type Status uint8

// Validation statuses.
const (
	// StatusSecure: a chain of signed DNSKEY and DS records was built from
	// a trust anchor to the authority zone.
	StatusSecure Status = iota + 1
	// StatusInsecure: the resolver has proof that no chain exists from any
	// trust anchor to the zone (e.g. an authenticated unsigned delegation —
	// the "island of security" case when the zone itself is signed).
	StatusInsecure
	// StatusBogus: a chain ought to exist but could not be validated —
	// signature failure or missing records.
	StatusBogus
	// StatusIndeterminate: the resolver cannot determine whether the
	// records should be signed, typically because no applicable trust
	// anchor is configured.
	StatusIndeterminate
)

var statusNames = map[Status]string{
	StatusSecure:        "secure",
	StatusInsecure:      "insecure",
	StatusBogus:         "bogus",
	StatusIndeterminate: "indeterminate",
}

// String implements fmt.Stringer.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return "unknown"
}

// Servfails reports whether a resolver must convert this status into a
// SERVFAIL answer to the stub.
func (s Status) Servfails() bool {
	return s == StatusBogus
}
