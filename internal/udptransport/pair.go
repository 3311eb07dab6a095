package udptransport

import (
	"errors"
	"net"
	"syscall"

	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// pairAttempts bounds how often ListenPair binds an ephemeral pair again
// when the TCP half finds the kernel's UDP pick taken.
const pairAttempts = 10

// ListenPair binds a UDP listener of n shards (as ListenShards) and a TCP
// listener on the same address and port, the two transports a DNS server
// answers on. With port 0 the kernel picks a free UDP port, and now and then
// that port number is taken on TCP; the pair is then bound again on a new
// pick, up to pairAttempts times. A fixed port is tried once. On failure
// nothing stays bound.
func ListenPair(addr string, h simnet.Handler, n int) (*Server, *TCPServer, error) {
	attempts := 1
	if _, port, err := net.SplitHostPort(addr); err == nil && (port == "" || port == "0") {
		attempts = pairAttempts
	}
	var err error
	for i := 0; i < attempts; i++ {
		var udp *Server
		if udp, err = ListenShards(addr, h, n); err != nil {
			return nil, nil, err
		}
		var tcp *TCPServer
		if tcp, err = ListenTCP(udp.AddrPort().String(), h); err == nil {
			return udp, tcp, nil
		}
		_ = udp.Close()
		if !errors.Is(err, syscall.EADDRINUSE) {
			break
		}
	}
	return nil, nil, err
}
