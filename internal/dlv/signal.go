package dlv

// TXTSignalPrefix is the TXT payload prefix of the DLV-aware DNS remedy
// (§6.2.1): "dlv=1" advertises a deposited DLV record, "dlv=0" its absence.
// Authoritative servers write it with TXTSignal; validators read it with
// ParseTXTSignal.
const TXTSignalPrefix = "dlv="

// TXTSignal renders the TXT remedy payload.
func TXTSignal(hasDLV bool) string {
	if hasDLV {
		return TXTSignalPrefix + "1"
	}
	return TXTSignalPrefix + "0"
}

// ParseTXTSignal extracts the remedy bit from TXT strings; ok is false when
// no dlv= string is present.
func ParseTXTSignal(strings []string) (hasDLV, ok bool) {
	for _, s := range strings {
		switch s {
		case TXTSignalPrefix + "1":
			return true, true
		case TXTSignalPrefix + "0":
			return false, true
		}
	}
	return false, false
}
