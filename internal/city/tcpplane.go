package city

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/shard"
)

// tcpJoinTimeout bounds each wait of the TCP plane on a member: a join's
// association directive, a stats probe, and the close that acknowledges
// a departure.
const tcpJoinTimeout = 10 * time.Second

// TCPConfig parameterizes a TCP-backed city plane.
type TCPConfig struct {
	// Peers, when non-empty, attaches to an already-running shard plane:
	// one advertised address per member ID (shard members hosted in
	// other processes — how the 10^4-user benchmark stays inside one
	// process's fd budget). Empty hosts every member in this process on
	// ephemeral ports.
	Peers []string
}

// TCPPlane drives the city's churn through real TCP sockets: one
// control.Agent per present user, joined to the shard member that owns
// its best-rate extender. It satisfies the Plane interface, so
// City.Run prices the full wire path — dial, codec, directive push —
// under the same event streams the in-process planes replay.
//
// Routing is computed client-side from the deterministic ring
// (shard.OwnerMapFor), so steady-state joins dial the owning member
// directly; the server-side redirect path stays as the safety net and
// is exercised by tests that dial the wrong member on purpose.
type TCPPlane struct {
	ownerOf []int
	addrs   []string
	plane   *shard.Plane // hosted members; nil when attached to Peers

	mu     sync.Mutex
	agents map[int]*control.Agent
	// leaving holds the departed agents whose member may not have
	// dropped them yet (Stats waits for them).
	leaving []*control.Agent
	// Closed agents' lifetime counters, folded in at departure so
	// DirectivesSeen/RedirectsSeen cover the whole run.
	closedDirectives int
	closedRedirects  int
}

// NewTCPPlane builds the TCP-backed plane this city was sized for,
// either hosting every shard member in-process (Peers empty) or
// attaching to members running elsewhere.
func (c *City) NewTCPPlane(tcfg TCPConfig) (*TCPPlane, error) {
	cfg := c.cfg
	p := &TCPPlane{
		ownerOf: shard.OwnerMapFor(cfg.Seed, cfg.Shards, 0, len(c.caps)),
		agents:  make(map[int]*control.Agent),
	}
	if len(tcfg.Peers) > 0 {
		if len(tcfg.Peers) != cfg.Shards {
			return nil, fmt.Errorf("city: tcp plane needs %d peer addresses, got %d",
				cfg.Shards, len(tcfg.Peers))
		}
		p.addrs = append([]string(nil), tcfg.Peers...)
		return p, nil
	}
	plane, err := shard.Listen(shard.PlaneConfig{
		Config: shard.Config{Shards: cfg.Shards, EngineConfig: c.engineConfig()},
		Addr:   "127.0.0.1:0",
		Member: -1,
	})
	if err != nil {
		return nil, err
	}
	p.plane = plane
	p.addrs = plane.Addrs()
	return p, nil
}

// memberFor routes a scan report to the member owning its best-rate
// extender.
func (p *TCPPlane) memberFor(rates []float64) (string, error) {
	owner := shard.OwnerForRates(p.ownerOf, rates)
	if owner < 0 {
		return "", fmt.Errorf("city: user reaches no extender")
	}
	if p.addrs[owner] == "" {
		return "", fmt.Errorf("city: member %d has no address", owner)
	}
	return p.addrs[owner], nil
}

// Join dials the owning member, joins, and waits for the association
// directive — the full wire round-trip the in-process planes skip.
func (p *TCPPlane) Join(userID int, rates, rssi []float64) ([]control.Directive, error) {
	addr, err := p.memberFor(rates)
	if err != nil {
		return nil, err
	}
	a, err := control.Dial(addr, userID)
	if err != nil {
		return nil, err
	}
	ext, err := a.Join(rates, rssi, tcpJoinTimeout)
	if err != nil {
		_ = a.Close()
		return nil, fmt.Errorf("city: tcp join user %d: %w", userID, err)
	}
	p.mu.Lock()
	p.agents[userID] = a
	p.mu.Unlock()
	return []control.Directive{{UserID: userID, Extender: ext}}, nil
}

// Update reports a fresh scan on the user's existing connection.
// Resulting re-associations arrive asynchronously on the agents'
// connections and are metered by DirectivesSeen, not returned here.
func (p *TCPPlane) Update(userID int, rates, rssi []float64) ([]control.Directive, error) {
	p.mu.Lock()
	a := p.agents[userID]
	p.mu.Unlock()
	if a == nil {
		return nil, fmt.Errorf("city: tcp update of absent user %d", userID)
	}
	if err := a.UpdateScan(rates, rssi); err != nil {
		return nil, fmt.Errorf("city: tcp update user %d: %w", userID, err)
	}
	return nil, nil
}

// Leave sends the departure. It does not wait for the member to drop
// the user and close the connection; the next Stats does.
func (p *TCPPlane) Leave(userID int) ([]control.Directive, bool) {
	p.mu.Lock()
	a := p.agents[userID]
	delete(p.agents, userID)
	p.mu.Unlock()
	if a == nil {
		return nil, false
	}
	err := a.Leave()
	p.mu.Lock()
	p.closedDirectives += a.Directives()
	p.closedRedirects += a.Redirects()
	if err == nil {
		p.leaving = append(slices.DeleteFunc(p.leaving, acknowledged), a)
	}
	p.mu.Unlock()
	if err != nil {
		return nil, false
	}
	return nil, true
}

// DirectivesSeen totals the association directives delivered to every
// agent over the run so far (departed users included) — the delivery
// count the Result reports for a TCP run.
func (p *TCPPlane) DirectivesSeen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.closedDirectives
	for _, a := range p.agents {
		n += a.Directives()
	}
	return n
}

// RedirectsSeen totals the cross-member redirect hops agents followed
// (0 when client-side routing always dialed the owner directly).
func (p *TCPPlane) RedirectsSeen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.closedRedirects
	for _, a := range p.agents {
		n += a.Redirects()
	}
	return n
}

// acknowledged reports whether a departed agent's member has closed the
// connection, which it does only after dropping the user.
func acknowledged(a *control.Agent) bool {
	select {
	case <-a.Closed():
		return true
	default:
		return false
	}
}

// quiesce waits, bounded by the join timeout, until the member of every
// departed agent has dropped it.
func (p *TCPPlane) quiesce() error {
	p.mu.Lock()
	leaving := slices.Clone(p.leaving)
	p.mu.Unlock()
	deadline := time.After(tcpJoinTimeout)
	for _, a := range leaving {
		select {
		case <-a.Closed():
		case <-deadline:
			return fmt.Errorf("city: departures unacknowledged after %v", tcpJoinTimeout)
		}
	}
	return nil
}

// Stats merges the member snapshots: directly from the hosted plane, or
// over the wire (one MsgStats probe per distinct member address) when
// attached to out-of-process members. It first waits for departures in
// flight (quiesce), so no user that left is still in the snapshot.
func (p *TCPPlane) Stats() (shard.Stats, error) {
	if err := p.quiesce(); err != nil {
		return shard.Stats{}, err
	}
	if p.plane != nil {
		return p.plane.Stats(), nil
	}
	var snaps []control.Stats
	seen := make(map[string]bool, len(p.addrs))
	for m, addr := range p.addrs {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		a, err := control.Dial(addr, -(m + 1))
		if err != nil {
			return shard.Stats{}, fmt.Errorf("city: stats probe to member %d: %w", m, err)
		}
		es, err := a.Stats(tcpJoinTimeout)
		_ = a.Close()
		if err != nil {
			return shard.Stats{}, fmt.Errorf("city: stats probe to member %d: %w", m, err)
		}
		snaps = append(snaps, es)
	}
	return shard.MergeStats(len(p.addrs), snaps), nil
}

// Close tears down every live and departing agent and, in hosted mode,
// the member servers.
func (p *TCPPlane) Close() error {
	p.mu.Lock()
	agents, leaving := p.agents, p.leaving
	p.agents, p.leaving = make(map[int]*control.Agent), nil
	p.mu.Unlock()
	for _, a := range leaving {
		_ = a.Close()
	}
	for _, a := range agents {
		_ = a.Close()
	}
	p.mu.Lock()
	for _, a := range agents {
		p.closedDirectives += a.Directives()
		p.closedRedirects += a.Redirects()
	}
	p.mu.Unlock()
	if p.plane != nil {
		return p.plane.Close()
	}
	return nil
}
