package capture

import (
	"net/netip"
	"slices"

	"github.com/dnsprivacy/lookaside/internal/dns"
	"github.com/dnsprivacy/lookaside/internal/simnet"
)

// State is the full serializable contents of an Analyzer — everything Tap
// has accumulated, not just the Report aggregates. Merge folds one
// analyzer's State into another, so merged leak classification (including
// the Case-1-dominance union and per-client profiles) is identical to one
// analyzer having seen all the traffic.
type State struct {
	Events     int
	BytesTotal int64

	QueriesByType map[dns.Type]int
	QueriesByRole map[simnet.Role]int
	BytesByRole   map[simnet.Role]int64

	DLVQueries  int
	DLVNoError  int
	DLVNXDomain int

	// Domains is the per-domain case table (Case-1 dominant);
	// HashedLabels the distinct hash labels seen in hashed mode.
	Domains      map[dns.Name]Case
	HashedLabels []string

	// Clients are the per-client observation records, sorted by address.
	Clients []ClientState
}

// ClientState is the serializable form of one client's registry view.
type ClientState struct {
	Client  netip.Addr
	Queries int
	Domains map[dns.Name]int
	Cases   map[dns.Name]Case
	Hashed  map[string]int
}

// ExportState deep-copies the analyzer's accumulated observations.
func (a *Analyzer) ExportState() *State {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := &State{
		Events:        a.events,
		BytesTotal:    a.bytesTotal,
		QueriesByType: make(map[dns.Type]int, len(a.queriesByType)),
		QueriesByRole: make(map[simnet.Role]int, len(a.queriesByRole)),
		BytesByRole:   make(map[simnet.Role]int64, len(a.bytesByRole)),
		DLVQueries:    a.dlvQueries,
		DLVNoError:    a.dlvNoError,
		DLVNXDomain:   a.dlvNXDomain,
		Domains:       make(map[dns.Name]Case, len(a.dlvDomains)),
		HashedLabels:  make([]string, 0, len(a.hashedLabels)),
		Clients:       make([]ClientState, 0, len(a.byClient)),
	}
	for k, v := range a.queriesByType {
		st.QueriesByType[k] = v
	}
	for k, v := range a.queriesByRole {
		st.QueriesByRole[k] = v
	}
	for k, v := range a.bytesByRole {
		st.BytesByRole[k] = v
	}
	for d, c := range a.dlvDomains {
		st.Domains[d] = c
	}
	for l := range a.hashedLabels {
		st.HashedLabels = append(st.HashedLabels, l)
	}
	slices.Sort(st.HashedLabels)
	for client, obs := range a.byClient {
		cs := ClientState{
			Client:  client,
			Queries: obs.queries,
			Domains: make(map[dns.Name]int, len(obs.domains)),
			Cases:   make(map[dns.Name]Case, len(obs.cases)),
			Hashed:  make(map[string]int, len(obs.hashed)),
		}
		for d, n := range obs.domains {
			cs.Domains[d] = n
		}
		for d, c := range obs.cases {
			cs.Cases[d] = c
		}
		for l, n := range obs.hashed {
			cs.Hashed[l] += n
		}
		st.Clients = append(st.Clients, cs)
	}
	slices.SortFunc(st.Clients, func(x, y ClientState) int { return x.Client.Compare(y.Client) })
	return st
}

// ImportState folds an exported state into the analyzer: counters add, the
// per-domain case tables union with Case-1 dominance (matching
// classifyLookaside), hashed labels union. Importing into a fresh analyzer
// reproduces the exporter exactly, and folding the states of several
// analyzers gives what one analyzer over their combined traffic would hold;
// Merge, and through it the sharded report, is this one fold.
func (a *Analyzer) ImportState(st *State) {
	if st == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.events += st.Events
	a.bytesTotal += st.BytesTotal
	for k, v := range st.QueriesByType {
		a.queriesByType[k] += v
	}
	for k, v := range st.QueriesByRole {
		a.queriesByRole[k] += v
	}
	for k, v := range st.BytesByRole {
		a.bytesByRole[k] += v
	}
	a.dlvQueries += st.DLVQueries
	a.dlvNoError += st.DLVNoError
	a.dlvNXDomain += st.DLVNXDomain
	for d, c := range st.Domains {
		if prev, seen := a.dlvDomains[d]; !seen || prev == Case2 {
			a.dlvDomains[d] = c
		}
	}
	for _, l := range st.HashedLabels {
		a.hashedLabels[l] = true
	}
	for _, cs := range st.Clients {
		dst, ok := a.byClient[cs.Client]
		if !ok {
			dst = newClientObs()
			a.byClient[cs.Client] = dst
		}
		dst.queries += cs.Queries
		for d, n := range cs.Domains {
			dst.domains[d] += n
		}
		for d, c := range cs.Cases {
			if prev, seen := dst.cases[d]; !seen || prev == Case2 {
				dst.cases[d] = c
			}
		}
		for l, n := range cs.Hashed {
			dst.hashed[l] += n
		}
	}
}
