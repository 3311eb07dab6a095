package udptransport

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dnsprivacy/lookaside/internal/dns"
)

// hostileCorpus reads the DNS decoder's hostile-wire corpus, which
// internal/dns's TestHostileCorpus writes and checks entry by entry.
func hostileCorpus(t *testing.T) [][]byte {
	t.Helper()
	raw, err := os.ReadFile("../dns/testdata/hostile.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, hx, _ := strings.Cut(line, " ")
		pkt, err := hex.DecodeString(hx)
		if err != nil {
			t.Fatalf("corpus entry %s: %v", name, err)
		}
		out = append(out, pkt)
	}
	if len(out) == 0 {
		t.Fatal("empty hostile corpus")
	}
	return out
}

// statsQuery is the stats scrape a resolver answers on its own name.
func statsQuery() *dns.Message {
	return dns.NewQuery(7, dns.MustName("_stats.resolved.invalid"), dns.TypeTXT, false)
}

// waitMalformed polls until stats reports want malformed queries.
func waitMalformed(t *testing.T, stats func() Stats, want int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if stats().Malformed >= uint64(want) {
			break
		}
	}
	if got := stats().Malformed; got != uint64(want) {
		t.Errorf("malformed = %d, want %d", got, want)
	}
}

// TestHostileCorpusUDP fires every corpus entry as a datagram at a pooled
// listener: each is dropped as malformed, the stats scrape is still
// answered, and the listener drains cleanly.
func TestHostileCorpusUDP(t *testing.T) {
	corpus := hostileCorpus(t)
	srv, err := Listen("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetWorkers(2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()
	conn, err := net.Dial("udp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	for _, pkt := range corpus {
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	_ = conn.Close()
	waitMalformed(t, srv.Stats, len(corpus))
	c := &Client{Timeout: 2 * time.Second}
	if resp, err := c.Query(srv.AddrPort(), statsQuery()); err != nil || resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("stats scrape after the corpus: %v, %v", resp, err)
	}
	if err := srv.Shutdown(2 * time.Second); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if st := srv.Stats(); st.Queries != 1 || st.Responses != 1 || st.InFlight != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestHostileCorpusTCP sends every corpus entry as a frame on its own
// connection: the server counts it malformed and drops the connection,
// still answers the stats scrape, and drains with no connection left.
func TestHostileCorpusTCP(t *testing.T) {
	corpus := hostileCorpus(t)
	srv, err := ListenTCP("127.0.0.1:0", echoHandler())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve()
	}()
	for _, pkt := range corpus {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		frame := binary.BigEndian.AppendUint16(nil, uint16(len(pkt)))
		if _, err := conn.Write(append(frame, pkt...)); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := conn.Read(make([]byte, 512)); n != 0 || err == nil {
			t.Fatalf("server answered a hostile frame with %d octets (err %v)", n, err)
		}
		_ = conn.Close()
	}
	waitMalformed(t, srv.Stats, len(corpus))
	c := &Client{Timeout: 2 * time.Second}
	if resp, err := c.QueryTCP(srv.AddrPort(), statsQuery()); err != nil || resp.Header.RCode != dns.RCodeNoError {
		t.Fatalf("stats scrape after the corpus: %v, %v", resp, err)
	}
	if err := srv.Shutdown(2 * time.Second); err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if st := srv.Stats(); st.Queries != 1 || st.Responses != 1 || st.InFlight != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}
