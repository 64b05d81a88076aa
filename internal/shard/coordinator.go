package shard

import (
	"errors"
	"fmt"
	"sync"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// Config parameterizes a sharded control plane, in process
// (NewCoordinator) or over TCP (PlaneConfig).
type Config struct {
	// Shards is the shard-member count (>= 1), fixed for the plane's
	// lifetime.
	Shards int
	// EngineConfig is the member template. Every member engine runs it
	// restricted to the extenders the ring assigns that member, so its
	// Owned must stay empty. Seed roots the ring's virtual-node
	// positions and extender keys; member m's engine gets the derived
	// seed.Derive(Seed, seed.ShardEngine, m).
	control.EngineConfig
}

// validate checks the member template and fills its defaults; both
// transports call it before deriving any member.
func (cfg *Config) validate() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("shard: need at least 1 shard, got %d", cfg.Shards)
	}
	if len(cfg.PLCCaps) == 0 {
		return errors.New("shard: no PLC capacities configured")
	}
	if len(cfg.Owned) > 0 {
		return errors.New("shard: the member template must leave Owned empty; the ring assigns each member's extenders")
	}
	if cfg.Policy == "" {
		cfg.Policy = control.PolicyWOLT
	}
	return nil
}

// member derives member m's engine config from the template: restricted
// to the extenders it owns, with its own policy seed.
func (cfg Config) member(m int, owned []int) control.EngineConfig {
	ec := cfg.EngineConfig
	ec.Owned = owned
	ec.Seed = seed.Derive(cfg.Seed, seed.ShardEngine, int64(m))
	return ec
}

// Stats is the coordinator's merged snapshot: the global view a single
// CC would have reported, plus shard-plane counters and the per-member
// engine snapshots.
type Stats struct {
	// Shards is the member count.
	Shards int
	// Users sums the member engines' users. Joins/Leaves/Reassociations
	// are coordinator-level logical counters: a handoff's re-join is not
	// counted as a user join, and a reassociation is any directive that
	// moved an already-associated user — whether the policy moved it
	// within a shard or a handoff moved it across shards.
	Users          int
	Joins          int
	Leaves         int
	Reassociations int
	// Handoffs counts users moved between shard members (scan updates
	// whose best-rate extender changed owner).
	Handoffs int
	// Redirects counts joins that entered through a member that did not
	// own the user (TCP plane only; the in-process coordinator routes
	// directly).
	Redirects int
	// DroppedReassigns sums the members' dropped leave-time rebalances
	// (control.Stats.DroppedReassigns across PerShard).
	DroppedReassigns int
	// DroppedPushes sums the members' transport-level shed directives
	// (control.Stats.DroppedPushes across PerShard; always 0 for the
	// in-process coordinator, which has no sockets).
	DroppedPushes int
	// Assignment is the merged user→extender map (global extender IDs).
	// Stats leaves it nil — at city scale the copy is an O(users)
	// allocation; call StatsWithAssignment when the full map is wanted.
	Assignment map[int]int
	// PerShard holds each member engine's own snapshot, in member-ID
	// order. Under Stats the per-shard Assignment maps are nil too
	// (control.Engine.StatsLite); StatsWithAssignment fills them.
	PerShard []control.Stats
}

// MergeStats folds member engine snapshots, in member-ID order, into
// the plane-wide view of a deployment with the given member count:
// summed counters, the merged assignment, and the snapshots themselves
// as PerShard. The TCP plane reports this way, whether the snapshots
// come from hosted servers or from MsgStats replies over the wire.
func MergeStats(shards int, members []control.Stats) Stats {
	st := Stats{Shards: shards, Assignment: make(map[int]int), PerShard: members}
	for _, es := range members {
		st.Users += es.Users
		st.Joins += es.Joins
		st.Leaves += es.Leaves
		st.Reassociations += es.Reassociations
		st.DroppedReassigns += es.DroppedReassigns
		st.DroppedPushes += es.DroppedPushes
		for id, ext := range es.Assignment {
			st.Assignment[id] = ext
		}
	}
	return st
}

// counters are the coordinator-level logical counters, kept per member
// (guarded by the member's lock) and folded together at Stats time.
type counters struct {
	joins, leaves, reassociations, handoffs int
}

func (a *counters) add(b counters) {
	a.joins += b.joins
	a.leaves += b.leaves
	a.reassociations += b.reassociations
	a.handoffs += b.handoffs
}

// member is one shard member: its engine and its share of the
// coordinator-level counters, guarded by its own lock. The engine is
// the member's one user table: it holds every homed user's last scan
// (the rates of the extenders the member owns) and directed extender,
// so the coordinator keeps no per-user state of its own beyond the
// stripes' home index.
type member struct {
	mu  sync.Mutex
	eng *control.Engine // nil = member owns no extenders
	ctr counters
}

// numStripes is the user-home index stripe count (power of two).
const numStripes = 256

// stripe guards one shard of the user→home-member index.
type stripe struct {
	mu   sync.Mutex
	home map[int]int // user -> member ID
}

// Coordinator runs N shard engines behind one in-process API: it routes
// every user to the member owning its best-rate extender and hands
// users off across members when their radio environment moves them.
// Membership and extender ownership are fixed at construction.
//
// Concurrency model (DESIGN.md §13): the routing table (ownerOf) and
// the member slice are immutable, so routing reads need no lock; the
// user→home index is striped by user ID; each member's engine (its one
// user table) and counters sit behind the member's own lock. An
// operation takes exactly one stripe lock, then member locks in
// ascending member-ID order (both on a handoff). StatsWithAssignment
// stops the world: all stripe locks ascending, then all member locks
// ascending.
type Coordinator struct {
	cfg     Config
	ownerOf []int    // extender -> member ID
	members []member // index = member ID

	stripes [numStripes]stripe
}

// NewCoordinator builds a sharded control plane with cfg.Shards members
// (IDs 0..Shards-1) and partitions the extenders across them. A member
// that owns no extenders gets no engine: the router never sends it a
// user, since every user is routed to the owner of an extender.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		ownerOf: OwnerMapFor(cfg.Seed, cfg.Shards, DefaultVirtualNodes, len(cfg.PLCCaps)),
		members: make([]member, cfg.Shards),
	}
	for i := range c.stripes {
		c.stripes[i].home = make(map[int]int)
	}
	for m, owned := range ownedSets(cfg.Shards, c.ownerOf) {
		if len(owned) == 0 {
			continue
		}
		eng, err := control.NewEngine(cfg.member(m, owned))
		if err != nil {
			return nil, err
		}
		c.members[m].eng = eng
	}
	return c, nil
}

// stripeFor returns the stripe guarding the user's home entry.
func (c *Coordinator) stripeFor(userID int) *stripe {
	return &c.stripes[uint(userID)&(numStripes-1)]
}

// tally counts the member engine's reassociation directives into the
// member's counters and returns the directives. Callers hold m.mu.
func (m *member) tally(dirs []control.Directive) []control.Directive {
	for _, d := range dirs {
		if d.Reassociation {
			m.ctr.reassociations++
		}
	}
	return dirs
}

// takenOver patches the directive of a user that an engine has just
// taken over from another engine in a handoff. The engine admitted the
// user fresh and flags its first directive as a first association, but
// from the plane's point of view the user moved when it was directed
// before (prior) to a different extender.
func takenOver(dirs []control.Directive, userID, prior int) []control.Directive {
	for i, d := range dirs {
		if d.UserID == userID {
			dirs[i].Reassociation = prior != model.Unassigned && prior != d.Extender
		}
	}
	return dirs
}

// Join admits a user: its scan report is routed to the member owning its
// best-rate extender, and the member's directives (with globally-correct
// reassociation flags) are returned.
func (c *Coordinator) Join(userID int, rates, rssi []float64) ([]control.Directive, error) {
	s := c.stripeFor(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.home[userID]; ok {
		return nil, fmt.Errorf("shard: user %d already joined", userID)
	}
	owner := OwnerForRates(c.ownerOf, rates)
	if owner < 0 {
		return nil, fmt.Errorf("shard: user %d reaches no extender", userID)
	}
	m := &c.members[owner]
	m.mu.Lock()
	defer m.mu.Unlock()
	dirs, err := m.eng.Join(userID, rates, rssi)
	if err != nil {
		return nil, err
	}
	s.home[userID] = owner
	m.ctr.joins++
	return m.tally(dirs), nil
}

// Update refreshes a user's scan report. When the report's best-rate
// extender still belongs to the user's home member, the member handles
// it; when it moved to another member's share (the user walked across
// the ring), the coordinator hands the user off: leave the old engine,
// join the new one, and report the move as a reassociation directive.
func (c *Coordinator) Update(userID int, rates, rssi []float64) ([]control.Directive, error) {
	s := c.stripeFor(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	home, ok := s.home[userID]
	if !ok {
		return nil, fmt.Errorf("shard: user %d not joined", userID)
	}
	owner := OwnerForRates(c.ownerOf, rates)
	if owner < 0 {
		return nil, fmt.Errorf("shard: user %d reaches no extender", userID)
	}
	if owner == home {
		m := &c.members[home]
		m.mu.Lock()
		defer m.mu.Unlock()
		dirs, err := m.eng.Update(userID, rates, rssi)
		if err != nil {
			return nil, err
		}
		return m.tally(dirs), nil
	}
	// Cross-shard handoff: both member locks, ascending member-ID order
	// (the lock protocol's second tier; see the Coordinator doc comment).
	old, next := &c.members[home], &c.members[owner]
	lockPair(&old.mu, home, &next.mu, owner)
	defer old.mu.Unlock()
	defer next.mu.Unlock()
	// The old member's leave may itself rebalance (ReassignOnLeave);
	// those directives ride along with the join's.
	prior, _ := old.eng.Extender(userID)
	leaveDirs, _ := old.eng.Leave(userID)
	leaveDirs = old.tally(leaveDirs)
	dirs, err := next.eng.Join(userID, rates, rssi)
	if err != nil {
		// The user is gone from its old shard and rejected by the new
		// one (offline-only policy): it has effectively departed.
		delete(s.home, userID)
		old.ctr.leaves++
		return nil, fmt.Errorf("shard: handoff of user %d to member %d: %w", userID, owner, err)
	}
	s.home[userID] = owner
	next.ctr.handoffs++
	dirs = next.tally(takenOver(dirs, userID, prior))
	if len(leaveDirs) == 0 {
		return dirs, nil
	}
	return append(leaveDirs, dirs...), nil
}

// lockPair acquires two member locks in ascending member-ID order.
func lockPair(a *sync.Mutex, aID int, b *sync.Mutex, bID int) {
	if aID < bID {
		a.Lock()
		b.Lock()
	} else {
		b.Lock()
		a.Lock()
	}
}

// Leave removes a user from its home member and reports whether it was
// present. Under Config.ReassignOnLeave the member's leave-time
// rebalancing directives (globally-correct reassociation flags) are
// returned, mirroring control.Engine.Leave.
func (c *Coordinator) Leave(userID int) ([]control.Directive, bool) {
	s := c.stripeFor(userID)
	s.mu.Lock()
	defer s.mu.Unlock()
	home, ok := s.home[userID]
	if !ok {
		return nil, false
	}
	m := &c.members[home]
	m.mu.Lock()
	defer m.mu.Unlock()
	dirs, _ := m.eng.Leave(userID)
	delete(s.home, userID)
	m.ctr.leaves++
	return m.tally(dirs), true
}

// lockWorld acquires every stripe lock then every member lock, both in
// ascending order, and returns the function that releases everything
// in reverse. With all stripes held no operation is in flight (each
// pins its stripe for its whole critical section).
func (c *Coordinator) lockWorld() (unlock func()) {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	for i := range c.members {
		c.members[i].mu.Lock()
	}
	return func() {
		for i := len(c.members) - 1; i >= 0; i-- {
			c.members[i].mu.Unlock()
		}
		for i := numStripes - 1; i >= 0; i-- {
			c.stripes[i].mu.Unlock()
		}
	}
}

// Stats returns the coordinator's merged counters without stopping the
// world: it visits members one at a time, so concurrent operations keep
// flowing and the totals are a monotone (not point-in-time) view. The
// merged and per-shard Assignment maps are nil — use
// StatsWithAssignment for the full O(users) copy.
func (c *Coordinator) Stats() Stats {
	return c.stats(false)
}

// StatsWithAssignment returns a point-in-time merged snapshot including
// the user→extender assignment maps (coordinator-wide and per shard).
// It briefly stops the world, and the maps are O(users) allocations;
// prefer Stats for monitoring.
func (c *Coordinator) StatsWithAssignment() Stats {
	return c.stats(true)
}

func (c *Coordinator) stats(withAssignment bool) Stats {
	if withAssignment {
		defer c.lockWorld()()
	}
	var total counters
	perShard := make([]control.Stats, len(c.members))
	for i := range c.members {
		m := &c.members[i]
		if !withAssignment {
			m.mu.Lock()
		}
		total.add(m.ctr)
		switch {
		case m.eng == nil:
			perShard[i] = control.Stats{Policy: c.cfg.Policy}
		case withAssignment:
			perShard[i] = m.eng.Stats()
		default:
			perShard[i] = m.eng.StatsLite()
		}
		if !withAssignment {
			m.mu.Unlock()
		}
	}
	// The engines hold the users and their assignments; only the
	// plane-level counters are the coordinator's own.
	st := MergeStats(len(c.members), perShard)
	if !withAssignment {
		st.Assignment = nil
	}
	st.Joins = total.joins
	st.Leaves = total.leaves
	st.Reassociations = total.reassociations
	st.Handoffs = total.handoffs
	return st
}
