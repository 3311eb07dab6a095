package udptransport

import (
	"net"
	"testing"
)

// TestListenPairSamePort: an ephemeral pair answers on one port number for
// both transports.
func TestListenPairSamePort(t *testing.T) {
	udp, tcp, err := ListenPair("127.0.0.1:0", echoHandler(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer udp.Close()
	defer tcp.Close()
	if u, c := udp.AddrPort(), tcp.AddrPort(); u != c || u.Port() == 0 {
		t.Fatalf("udp on %v, tcp on %v", u, c)
	}
}

// TestListenPairFixedPortTakenLeavesNothingBound: a fixed port whose TCP
// half is taken fails on the one attempt it gets, and the UDP socket it
// bound first is released.
func TestListenPairFixedPortTakenLeavesNothingBound(t *testing.T) {
	// A port number just released on UDP and still held on TCP.
	udp, tcp, err := ListenPair("127.0.0.1:0", echoHandler(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	addr := udp.AddrPort().String()
	_ = udp.Close()
	if udp, tcp, err := ListenPair(addr, echoHandler(), 1); err == nil {
		udp.Close()
		tcp.Close()
		t.Fatalf("pair bound on %s while its TCP port was held", addr)
	}
	pc, err := net.ListenPacket("udp", addr)
	if err != nil {
		t.Fatalf("UDP %s still bound after a failed pair: %v", addr, err)
	}
	_ = pc.Close()
}

// TestListenPairRefusesBadInput: a nil handler or an unparsable address
// binds nothing.
func TestListenPairRefusesBadInput(t *testing.T) {
	if _, _, err := ListenPair("127.0.0.1:0", nil, 1); err == nil {
		t.Error("nil handler accepted")
	}
	if _, _, err := ListenPair("bogus", echoHandler(), 1); err == nil {
		t.Error("bad address accepted")
	}
}
