package dlv

import "testing"

func TestParseTXTSignal(t *testing.T) {
	for _, hasDLV := range []bool{true, false} {
		if v, ok := ParseTXTSignal([]string{"x", TXTSignal(hasDLV)}); !ok || v != hasDLV {
			t.Errorf("ParseTXTSignal(%q) = %t, %t", TXTSignal(hasDLV), v, ok)
		}
	}
	for _, strs := range [][]string{{"v=spf1 -all"}, {"dlv=2"}, nil} {
		if _, ok := ParseTXTSignal(strs); ok {
			t.Errorf("ParseTXTSignal(%q) found a signal", strs)
		}
	}
}
