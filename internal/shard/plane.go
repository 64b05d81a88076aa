package shard

import (
	"errors"
	"fmt"
	"log"
	"net"
	"strconv"
	"sync"

	"github.com/plcwifi/wolt/internal/control"
)

// PlaneConfig configures a sharded TCP control plane: the same ring and
// member template as the in-process Coordinator (Config), plus where
// the members listen and the per-server transport knobs. Every process
// sharing Config.Seed computes the same extender→shard map.
type PlaneConfig struct {
	Config
	// Addr is the base listen address. With Member < 0 every member
	// listens in this process: member k takes port+k when the port is
	// non-zero, or an ephemeral port otherwise. With Member >= 0 the one
	// hosted member listens exactly here.
	Addr string
	// Member selects single-member mode: host only this member (other
	// members run in their own processes and are reached via Peers).
	// Negative hosts all members in-process.
	Member int
	// Peers are the advertised addresses of ALL members (index = member
	// ID), required in single-member mode so redirects can point across
	// processes.
	Peers []string
	// Logger is passed to every member server (see
	// control.ServerConfig); the servers' other settings keep their
	// defaults.
	Logger *log.Logger
}

// Plane is a sharded TCP control plane: one control.Server per hosted
// member, all sharing a deterministic extender→shard map. A join that
// enters through the wrong member is answered with MsgRedirect to the
// owning member's address; control.Agent follows it transparently.
type Plane struct {
	cfg     PlaneConfig
	ownerOf []int
	members []int // hosted member IDs, ascending

	mu        sync.Mutex
	addrs     []string // advertised address per member ID
	servers   map[int]*control.Server
	redirects int
}

// Listen starts the hosted members' servers.
func Listen(cfg PlaneConfig) (*Plane, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Member >= cfg.Shards {
		return nil, fmt.Errorf("shard: member %d out of range [0,%d)", cfg.Member, cfg.Shards)
	}
	if cfg.Member >= 0 && len(cfg.Peers) != cfg.Shards {
		return nil, fmt.Errorf("shard: member mode needs %d peer addresses, got %d",
			cfg.Shards, len(cfg.Peers))
	}

	p := &Plane{
		cfg:     cfg,
		ownerOf: OwnerMapFor(cfg.Seed, cfg.Shards, DefaultVirtualNodes, len(cfg.PLCCaps)),
		addrs:   make([]string, cfg.Shards),
		servers: make(map[int]*control.Server, cfg.Shards),
	}
	if cfg.Member >= 0 {
		copy(p.addrs, cfg.Peers)
		p.members = []int{cfg.Member}
	} else {
		for m := 0; m < cfg.Shards; m++ {
			p.members = append(p.members, m)
		}
	}
	owned := ownedSets(cfg.Shards, p.ownerOf)

	host, basePort, err := splitHostPort(cfg.Addr)
	if err != nil {
		return nil, err
	}
	for i, m := range p.members {
		if len(owned[m]) == 0 {
			// A member that owns no extenders never receives traffic;
			// don't burn a socket on it.
			continue
		}
		listenAddr := cfg.Addr
		if cfg.Member < 0 && basePort != 0 {
			listenAddr = net.JoinHostPort(host, strconv.Itoa(basePort+i))
		} else if cfg.Member < 0 {
			listenAddr = net.JoinHostPort(host, "0")
		}
		srv, err := control.NewServer(listenAddr, control.ServerConfig{
			EngineConfig: cfg.member(m, owned[m]),
			Redirect:     p.redirectFor(m),
			Logger:       cfg.Logger,
		})
		if err != nil {
			_ = p.Close()
			return nil, err
		}
		p.mu.Lock()
		p.servers[m] = srv
		// Advertise the actual bound address (the configured one may
		// have named port 0).
		p.addrs[m] = srv.Addr()
		p.mu.Unlock()
	}
	if len(p.servers) == 0 {
		return nil, errors.New("shard: hosted members own no extenders")
	}
	return p, nil
}

// redirectFor builds member m's join-routing hook: joins whose best-rate
// extender belongs to another member are bounced to that member's
// address.
func (p *Plane) redirectFor(m int) func(userID int, rates []float64) (string, bool) {
	return func(userID int, rates []float64) (string, bool) {
		owner := OwnerForRates(p.ownerOf, rates)
		if owner < 0 || owner == m {
			return "", false // unreachable users get the engine's rejection
		}
		p.mu.Lock()
		addr := p.addrs[owner]
		if addr != "" {
			p.redirects++
		}
		p.mu.Unlock()
		if addr == "" {
			return "", false
		}
		return addr, true
	}
}

// Addrs returns the advertised address of every member (empty for
// members that own no extenders and therefore run no server).
func (p *Plane) Addrs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.addrs...)
}

// Members returns the hosted member IDs.
func (p *Plane) Members() []int {
	return append([]int(nil), p.members...)
}

// Stats merges the hosted members' engine snapshots. In single-member
// mode this covers only the local shard; a deployment-wide view needs
// each process's snapshot.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	var servers []*control.Server
	for _, m := range p.members {
		if srv := p.servers[m]; srv != nil {
			servers = append(servers, srv)
		}
	}
	redirects := p.redirects
	p.mu.Unlock()

	var snaps []control.Stats
	for _, srv := range servers {
		snaps = append(snaps, srv.StatsSnapshot())
	}
	st := MergeStats(p.cfg.Shards, snaps)
	st.Redirects = redirects
	return st
}

// Close shuts every hosted member server down.
func (p *Plane) Close() error {
	p.mu.Lock()
	servers := make([]*control.Server, 0, len(p.servers))
	for _, s := range p.servers {
		servers = append(servers, s)
	}
	p.servers = map[int]*control.Server{}
	p.mu.Unlock()
	var first error
	for _, s := range servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// splitHostPort parses "host:port" tolerating a numeric port only.
func splitHostPort(addr string) (string, int, error) {
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", 0, fmt.Errorf("shard: bad address %q: %w", addr, err)
	}
	if portStr == "" {
		return host, 0, nil
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", 0, fmt.Errorf("shard: bad port in %q: %w", addr, err)
	}
	return host, port, nil
}
