package shard

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/model"
	"github.com/plcwifi/wolt/internal/seed"
)

// Config parameterizes a sharded control plane, in process
// (NewCoordinator) or over TCP (PlaneConfig).
type Config struct {
	// Shards is the initial shard-member count (>= 1).
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
	// Shards is the current member count.
	Shards int
	// Users sums the member engines' users. Joins/Leaves/Reassociations
	// are coordinator-level logical counters: rebalance re-joins are not
	// counted as user joins, and a reassociation is any directive that
	// moved an already-associated user — whether the policy moved it
	// within a shard or a handoff moved it across shards.
	Users          int
	Joins          int
	Leaves         int
	Reassociations int
	// Handoffs counts users moved between shard members (scan updates
	// whose best-rate extender changed owner, plus rebalance moves).
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
	joins, leaves, reassociations int
	handoffs, redirects           int
}

func (a *counters) add(b counters) {
	a.joins += b.joins
	a.leaves += b.leaves
	a.reassociations += b.reassociations
	a.handoffs += b.handoffs
	a.redirects += b.redirects
}

// member is one shard member: its engine and its share of the
// coordinator-level counters, guarded by its own lock. The engine is
// the member's one user table: it holds every homed user's last scan
// and directed extender, so the coordinator keeps no per-user state of
// its own beyond the stripes' home index. The struct survives
// rebalances (counters persist; the engine is rebuilt when the
// owned-extender set changes) and dies only when the member leaves the
// ring, at which point its counters fold into Coordinator.retired.
type member struct {
	id int

	mu  sync.Mutex
	eng *control.Engine // nil = member owns no extenders
	ctr counters
}

// routing is the read-mostly routing snapshot: which members exist and
// which member owns each extender. Operations load it once (after
// pinning their user's stripe) and never see it change mid-operation —
// rebalancing publishes a fresh snapshot, with a bumped epoch, only
// while holding every stripe lock.
type routing struct {
	epoch   int64
	ownerOf []int           // extender -> member ID
	members map[int]*member // never mutated after publish
	ids     []int           // sorted member IDs
}

// numStripes is the user-home index stripe count (power of two).
const numStripes = 256

// stripe guards one shard of the user→home-member index.
type stripe struct {
	mu   sync.Mutex
	home map[int]int // user -> member ID
}

// Coordinator runs N shard engines behind one in-process API: it routes
// every user to the member owning its best-rate extender, hands users
// off across members when their radio environment moves them, and
// rebalances when a shard joins or leaves.
//
// Concurrency model (DESIGN.md §13): routing lives in an epoch-versioned
// snapshot behind an atomic pointer; the user→home index is striped by
// user ID; each member's engine (its one user table) and counters sit
// behind the member's own lock. An operation takes exactly one stripe
// lock, then member locks in ascending member-ID order (both on a
// handoff). Rebalancing is stop-the-world: all stripe locks ascending,
// then all member locks ascending, then a new snapshot is published.
// Holding any stripe lock therefore freezes routing, so a snapshot
// loaded after the stripe lock is pinned for the whole operation.
type Coordinator struct {
	cfg  Config
	ring *Ring // guarded by admin

	routing atomic.Pointer[routing]

	admin  sync.Mutex // serializes ring changes (Add/RemoveShard)
	nextID int        // guarded by admin

	stripes [numStripes]stripe

	// retired accumulates the counters of removed members so Stats stays
	// a faithful history across RemoveShard.
	retiredMu sync.Mutex
	retired   counters
}

// NewCoordinator builds a sharded control plane with cfg.Shards members
// (IDs 0..Shards-1) and partitions the extenders across them.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:    cfg,
		ring:   newRing(cfg.Seed, cfg.Shards, DefaultVirtualNodes),
		nextID: cfg.Shards,
	}
	for i := range c.stripes {
		c.stripes[i].home = make(map[int]int)
	}
	members := make(map[int]*member, cfg.Shards)
	for m := 0; m < cfg.Shards; m++ {
		members[m] = &member{id: m}
	}
	ids := sortedMemberIDs(members)
	ownerOf := c.ring.OwnerMap(len(cfg.PLCCaps))
	for m, owned := range ownedSets(ids, ownerOf) {
		eng, err := c.buildEngine(m, owned)
		if err != nil {
			return nil, err
		}
		members[m].eng = eng
	}
	c.routing.Store(&routing{
		epoch:   1,
		ownerOf: ownerOf,
		members: members,
		ids:     ids,
	})
	return c, nil
}

// ownedSets groups extenders by owning member; every listed member gets
// an entry (possibly empty).
func ownedSets(ids, ownerOf []int) map[int][]int {
	sets := make(map[int][]int, len(ids))
	for _, m := range ids {
		sets[m] = nil
	}
	for j, m := range ownerOf {
		sets[m] = append(sets[m], j)
	}
	return sets
}

func sortedMemberIDs(members map[int]*member) []int {
	ids := make([]int, 0, len(members))
	for m := range members {
		ids = append(ids, m)
	}
	sort.Ints(ids)
	return ids
}

// buildEngine constructs member m's engine over its owned extenders; a
// member owning nothing gets no engine (it cannot accept users, and the
// router never sends it any).
func (c *Coordinator) buildEngine(m int, owned []int) (*control.Engine, error) {
	if len(owned) == 0 {
		return nil, nil
	}
	return control.NewEngine(c.cfg.member(m, owned))
}

// stripeFor returns the stripe guarding the user's home entry.
func (c *Coordinator) stripeFor(userID int) *stripe {
	return &c.stripes[uint(userID)&(numStripes-1)]
}

// Epoch returns the routing snapshot's version; it bumps once per
// completed rebalance.
func (c *Coordinator) Epoch() int64 {
	return c.routing.Load().epoch
}

// Owner returns the member ID owning the given extender.
func (c *Coordinator) Owner(extender int) int {
	rt := c.routing.Load()
	if extender < 0 || extender >= len(rt.ownerOf) {
		return -1
	}
	return rt.ownerOf[extender]
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
// taken over from another engine (a handoff or a rebalance re-join).
// The engine admitted the user fresh and flags its first directive as a
// first association, but from the plane's point of view the user moved
// when it was directed before (prior) to a different extender.
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
	rt := c.routing.Load()
	owner := OwnerForRates(rt.ownerOf, rates)
	if owner < 0 {
		return nil, fmt.Errorf("shard: user %d reaches no extender", userID)
	}
	m := rt.members[owner]
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.eng == nil {
		return nil, fmt.Errorf("shard: member %d owns no extenders", owner)
	}
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
	rt := c.routing.Load()
	owner := OwnerForRates(rt.ownerOf, rates)
	if owner < 0 {
		return nil, fmt.Errorf("shard: user %d reaches no extender", userID)
	}
	if owner == home {
		m := rt.members[home]
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
	old, next := rt.members[home], rt.members[owner]
	lockPair(&old.mu, old.id, &next.mu, next.id)
	defer old.mu.Unlock()
	defer next.mu.Unlock()
	if next.eng == nil {
		return nil, fmt.Errorf("shard: member %d owns no extenders", owner)
	}
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
	m := c.routing.Load().members[home]
	m.mu.Lock()
	defer m.mu.Unlock()
	dirs, _ := m.eng.Leave(userID)
	delete(s.home, userID)
	m.ctr.leaves++
	return m.tally(dirs), true
}

// AddShard adds a new member to the ring and rebalances: extenders whose
// ownership moved to the new member take their users with them. Returns
// the new member's ID and the number of users handed off.
func (c *Coordinator) AddShard() (memberID, handoffs int, err error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	memberID = c.nextID
	c.nextID++
	c.ring.Add(memberID)
	handoffs, err = c.rebalance(memberID, -1)
	return memberID, handoffs, err
}

// RemoveShard removes a member from the ring and rebalances its
// extenders (and their users) onto the survivors. The last member cannot
// be removed.
func (c *Coordinator) RemoveShard(memberID int) (handoffs int, err error) {
	c.admin.Lock()
	defer c.admin.Unlock()
	rt := c.routing.Load()
	if _, ok := rt.members[memberID]; !ok {
		return 0, fmt.Errorf("shard: no member %d", memberID)
	}
	if len(rt.members) == 1 {
		return 0, errors.New("shard: cannot remove the last member")
	}
	c.ring.Remove(memberID)
	return c.rebalance(-1, memberID)
}

// lockWorld acquires every stripe lock then every member lock, both in
// ascending order — the stop-the-world prefix shared by rebalancing and
// StatsWithAssignment. The returned function releases everything in
// reverse. With all stripes held no operation is in flight (each pins
// its stripe for its whole critical section), and the routing snapshot
// cannot change under anyone.
func (c *Coordinator) lockWorld(rt *routing) (unlock func()) {
	for i := range c.stripes {
		c.stripes[i].mu.Lock()
	}
	for _, id := range rt.ids {
		rt.members[id].mu.Lock()
	}
	return func() {
		for i := len(rt.ids) - 1; i >= 0; i-- {
			rt.members[rt.ids[i]].mu.Unlock()
		}
		for i := numStripes - 1; i >= 0; i-- {
			c.stripes[i].mu.Unlock()
		}
	}
}

// rebalance recomputes extender ownership after a ring change, builds
// fresh engines for the members whose owned sets changed, re-joins
// their users (and a removed member's) deterministically (ascending
// user ID) and publishes the next routing snapshot. Users whose home
// member changed count as handoffs; users re-joining a rebuilt engine
// of the same member do not. added >= 0 introduces that member;
// removed >= 0 drops it (its counters fold into the retired totals).
// Callers hold c.admin; the world is locked for the duration.
//
// A user's home is always the member owning its best-rate extender:
// Join routes it there, Update hands it off when that owner changes,
// and a user no engine accepts departs. A member whose owned set did
// not change therefore keeps every user it has, and only users of
// rebuilt or removed members move — always onto rebuilt members.
func (c *Coordinator) rebalance(added, removed int) (int, error) {
	rt := c.routing.Load()
	unlock := c.lockWorld(rt)
	defer unlock()

	// Next membership: the member structs (and their counters and locks)
	// carry over; only the ring delta is applied.
	members := make(map[int]*member, len(rt.members)+1)
	for id, m := range rt.members {
		members[id] = m
	}
	if added >= 0 {
		members[added] = &member{id: added}
		members[added].mu.Lock() // world-locked like its peers
		defer members[added].mu.Unlock()
	}
	var removedMember *member
	if removed >= 0 {
		removedMember = members[removed]
		delete(members, removed)
	}

	memberIDs := sortedMemberIDs(members)
	newOwnerOf := c.ring.OwnerMap(len(c.cfg.PLCCaps))
	newSets := ownedSets(memberIDs, newOwnerOf)
	oldSets := ownedSets(memberIDs, rt.ownerOf)

	// The replacement engines stay local until every user is re-joined:
	// the old engines are where the re-homed users' scans are read from.
	built := make(map[int]*control.Engine)
	for _, m := range memberIDs {
		if slices.Equal(oldSets[m], newSets[m]) {
			continue
		}
		eng, err := c.buildEngine(m, newSets[m])
		if err != nil {
			return 0, err
		}
		built[m] = eng
	}

	ids := make([]int, 0, 1024)
	for i := range c.stripes {
		for id, home := range c.stripes[i].home {
			if _, rebuilt := built[home]; rebuilt || home == removed {
				ids = append(ids, id)
			}
		}
	}
	sort.Ints(ids)

	handoffs := 0
	var rates, rssi []float64
	for _, id := range ids {
		st := c.stripeFor(id)
		oldHome := st.home[id]
		old := rt.members[oldHome]
		var prior int
		rates, rssi, prior, _ = old.eng.AppendReport(id, rates[:0], rssi[:0])
		newHome := OwnerForRates(newOwnerOf, rates)
		next, eng := members[newHome], built[newHome]
		var dirs []control.Directive
		var err error
		if eng != nil {
			dirs, err = eng.Join(id, rates, rssi)
		}
		if eng == nil || err != nil {
			// No surviving member owns anything this user reaches, or
			// its new engine refused it: it has effectively departed.
			delete(st.home, id)
			old.ctr.leaves++
			continue
		}
		if newHome != oldHome {
			handoffs++
			next.ctr.handoffs++
			st.home[id] = newHome
		}
		next.tally(takenOver(dirs, id, prior))
	}
	for m, eng := range built {
		members[m].eng = eng
	}

	if removedMember != nil {
		c.retiredMu.Lock()
		c.retired.add(removedMember.ctr)
		c.retiredMu.Unlock()
	}

	c.routing.Store(&routing{
		epoch:   rt.epoch + 1,
		ownerOf: newOwnerOf,
		members: members,
		ids:     memberIDs,
	})
	return handoffs, nil
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
	rt := c.routing.Load()
	if withAssignment {
		// The world lock both freezes a consistent snapshot and pins rt
		// as the current routing.
		unlock := c.lockWorld(rt)
		defer unlock()
	}
	c.retiredMu.Lock()
	total := c.retired
	c.retiredMu.Unlock()
	perShard := make([]control.Stats, 0, len(rt.ids))
	for _, id := range rt.ids {
		m := rt.members[id]
		if !withAssignment {
			m.mu.Lock()
		}
		total.add(m.ctr)
		var es control.Stats
		switch {
		case m.eng == nil:
			es = control.Stats{Policy: c.cfg.Policy}
		case withAssignment:
			es = m.eng.Stats()
		default:
			es = m.eng.StatsLite()
		}
		if !withAssignment {
			m.mu.Unlock()
		}
		perShard = append(perShard, es)
	}
	// The engines hold the users and their assignments; only the
	// plane-level counters are the coordinator's own.
	st := MergeStats(len(rt.members), perShard)
	if !withAssignment {
		st.Assignment = nil
	}
	st.Joins = total.joins
	st.Leaves = total.leaves
	st.Reassociations = total.reassociations
	st.Handoffs = total.handoffs
	st.Redirects = total.redirects
	return st
}
