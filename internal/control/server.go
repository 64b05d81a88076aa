package control

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultIOTimeout bounds a single read or write on a server-side
// connection when ServerConfig leaves the timeouts zero. Agents keep
// idle connections alive with MsgPing well inside this window.
const DefaultIOTimeout = 30 * time.Second

// DefaultPushQueueDepth bounds each connection's outbound directive
// queue (in batches) when ServerConfig leaves PushQueueDepth zero.
const DefaultPushQueueDepth = 256

// ServerConfig configures a central controller: the engine it serves
// plus the transport knobs around it.
type ServerConfig struct {
	// EngineConfig configures the policy engine behind the socket
	// (capacities, owned extenders, policy, seed and warm-path knobs).
	EngineConfig
	// ReadTimeout bounds one message read per connection: a stalled
	// agent is disconnected (and treated as departed if it had joined)
	// instead of pinning a server goroutine forever. Zero selects
	// DefaultIOTimeout; negative disables the deadline.
	ReadTimeout time.Duration
	// WriteTimeout bounds one message write per connection. Zero selects
	// DefaultIOTimeout; negative disables the deadline.
	WriteTimeout time.Duration
	// PushQueueDepth bounds each connection's outbound directive queue,
	// in batches. When a slow reader's queue is full, further pushes to
	// it are dropped and counted in Stats.DroppedPushes instead of
	// stalling the engine-order push path behind one stuck socket. Zero
	// selects DefaultPushQueueDepth.
	PushQueueDepth int
	// Redirect, when set, is consulted before every join: returning
	// (addr, true) answers the agent with MsgRedirect instead of
	// admitting it — the shard layer's cross-shard handoff hook.
	Redirect func(userID int, rates []float64) (addr string, ok bool)
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
}

// Server is the WOLT Central Controller's TCP transport: it accepts
// agent connections, checks each one's wire hello, decodes protocol
// messages, and forwards them to a policy Engine. All association
// policy and user state live in the Engine; the Server only moves
// messages.
type Server struct {
	cfg      ServerConfig
	engine   *Engine
	listener net.Listener

	// opMu serializes engine-operation + directive-push pairs so that
	// directives reach agents in the order the engine produced them
	// (two concurrent joins must not interleave their pushes, or an
	// agent could end on a stale extender).
	opMu sync.Mutex

	mu        sync.Mutex
	conns     map[*serverConn]struct{}
	userConns map[int]*serverConn

	// droppedPushes counts directives discarded because their target
	// connection's outbound queue was full (surfaced in StatsSnapshot).
	droppedPushes atomic.Int64

	wg     sync.WaitGroup
	closed chan struct{}
}

// serverConn is one accepted connection: the raw conn (registered
// before the handshake so Close can unblock the handshake read), the
// framed wireConn and, from the first push that has to queue, a
// bounded outbound queue drained by a dedicated writer goroutine. The
// queue decouples the engine's lock-ordered push path from each
// socket's drain rate: a stalled reader fills its own queue and starts
// shedding directives instead of blocking pushes to everyone else
// behind its write deadline. Most connections never get one: the join
// reply is written inline (Server.deliver), and only a re-association
// or a departure's rebalance queues.
type serverConn struct {
	c  net.Conn
	wc *wireConn // set by handle after the handshake, before any write

	outMu     sync.Mutex
	out       chan []Message // nil until the first queued push starts the writer
	wrote     bool           // the server has written to the socket
	outClosed bool

	// dead flips after the first write error so queued batches behind it
	// are skipped instead of each eating a full write-deadline stall.
	dead atomic.Bool
}

// reply writes a handler reply (redirect, error, stats) directly. It
// counts as a server write: the socket's send buffer may no longer be
// empty, so a later join reply on this connection takes the queue.
func (sc *serverConn) reply(m Message) error {
	sc.outMu.Lock()
	sc.wrote = true
	sc.outMu.Unlock()
	return sc.wc.send(m)
}

// closeOutbox stops the connection's writer, if one was ever started;
// pushes after it are shed silently — those users are departing, not
// stalled.
func (sc *serverConn) closeOutbox() {
	sc.outMu.Lock()
	defer sc.outMu.Unlock()
	if !sc.outClosed {
		sc.outClosed = true
		if sc.out != nil {
			close(sc.out)
		}
	}
}

// close tears down the transport. The raw conn is closed directly (not
// through wc, which may not exist yet mid-handshake).
func (sc *serverConn) close() error {
	return sc.c.Close()
}

// NewServer starts a controller listening on addr (e.g. "127.0.0.1:0").
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	engine, err := NewEngine(cfg.EngineConfig)
	if err != nil {
		return nil, err
	}
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = DefaultIOTimeout
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultIOTimeout
	}
	if cfg.PushQueueDepth <= 0 {
		cfg.PushQueueDepth = DefaultPushQueueDepth
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("control: listen: %w", err)
	}
	s := &Server{
		cfg:       cfg,
		engine:    engine,
		listener:  ln,
		conns:     make(map[*serverConn]struct{}),
		userConns: make(map[int]*serverConn),
		closed:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the controller's listen address.
func (s *Server) Addr() string {
	return s.listener.Addr().String()
}

// Close shuts the controller down and waits for its goroutines. Every
// open connection is closed, whether or not its agent ever joined.
func (s *Server) Close() error {
	close(s.closed)
	err := s.listener.Close()
	s.mu.Lock()
	for sc := range s.conns {
		_ = sc.close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// StatsSnapshot returns the controller's counters and current
// assignment, including the transport-level DroppedPushes count (the
// engine knows nothing about sockets).
func (s *Server) StatsSnapshot() Stats {
	st := s.engine.Stats()
	st.DroppedPushes = int(s.droppedPushes.Load())
	return st
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logf("accept: %v", err)
				return
			}
		}
		sc := &serverConn{c: conn}
		s.wg.Add(1)
		go s.handle(sc)
	}
}

// connWriter drains one connection's outbound queue. Batches enqueued
// after a write error are skipped (not re-counted as drops — the
// handler is already tearing the connection down as a departure).
func (s *Server) connWriter(sc *serverConn, out <-chan []Message) {
	defer s.wg.Done()
	for msgs := range out {
		if sc.dead.Load() {
			continue
		}
		if err := sc.wc.sendBatch(msgs); err != nil {
			sc.dead.Store(true)
			s.logf("push %d directives: %v", len(msgs), err)
		}
	}
}

func (s *Server) handle(sc *serverConn) {
	defer s.wg.Done()
	// Register under the same lock that Close sweeps the map with, and
	// re-check the shutdown flag: a connection accepted concurrently
	// with Close could otherwise register after the sweep and leave this
	// goroutine blocked in the handshake read forever. Registration
	// happens BEFORE the handshake for the same reason.
	s.mu.Lock()
	s.conns[sc] = struct{}{}
	var shuttingDown bool
	select {
	case <-s.closed:
		shuttingDown = true
	default:
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
		sc.closeOutbox()
		_ = sc.close()
	}()
	if shuttingDown {
		return
	}
	wc, err := handshake(sc.c, s.cfg.ReadTimeout, s.cfg.WriteTimeout)
	if err != nil {
		// An agent's hello rides with its first frame, so one that
		// closes before sending anything ends here at EOF: a quiet
		// close, not a failed handshake.
		if !errors.Is(err, io.EOF) {
			s.logf("handshake: %v", err)
		}
		return
	}
	sc.wc = wc
	var joinedUser = -1
	for {
		msg, err := wc.recv()
		if err != nil {
			// Connection gone (or its read deadline expired): treat as
			// an implicit leave.
			if joinedUser >= 0 {
				s.removeUser(joinedUser, sc)
			}
			return
		}
		switch msg.Type {
		case MsgJoin:
			// One user per connection: the close that departs it
			// removes only joinedUser.
			if joinedUser >= 0 {
				_ = sc.reply(Message{Type: MsgError, Error: fmt.Sprintf("connection already joined as user %d", joinedUser)})
				continue
			}
			if s.cfg.Redirect != nil {
				if addr, ok := s.cfg.Redirect(msg.UserID, msg.Rates); ok {
					_ = sc.reply(Message{Type: MsgRedirect, UserID: msg.UserID, Addr: addr})
					continue
				}
			}
			if err := s.join(sc, msg); err != nil {
				_ = sc.reply(Message{Type: MsgError, Error: err.Error()})
				continue
			}
			joinedUser = msg.UserID
		case MsgUpdate:
			if joinedUser < 0 || msg.UserID != joinedUser {
				_ = sc.reply(Message{Type: MsgError, Error: "update before join"})
				continue
			}
			if err := s.update(msg); err != nil {
				_ = sc.reply(Message{Type: MsgError, Error: err.Error()})
			}
		case MsgLeave:
			if joinedUser >= 0 {
				s.removeUser(joinedUser, sc)
				joinedUser = -1
			}
			return
		case MsgPing:
			// Keepalive: the read itself refreshed the deadline.
		case MsgStats:
			stats := s.StatsSnapshot()
			if err := sc.reply(Message{Type: MsgStatsReply, Stats: &stats}); err != nil {
				return
			}
		default:
			_ = sc.reply(Message{Type: MsgError, Error: fmt.Sprintf("unexpected message %q", msg.Type)})
		}
	}
}

// join admits the agent through the engine and pushes the resulting
// directives; the joining user's own batch is written inline when it
// can be (deliver).
func (s *Server) join(sc *serverConn, msg Message) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	dirs, err := s.engine.Join(msg.UserID, msg.Rates, msg.RSSI)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.userConns[msg.UserID] = sc
	s.mu.Unlock()
	s.push(dirs, sc)
	return nil
}

func (s *Server) update(msg Message) error {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	dirs, err := s.engine.Update(msg.UserID, msg.Rates, msg.RSSI)
	if err != nil {
		return err
	}
	s.pushDirectives(dirs)
	return nil
}

// removeUser drops a departed user from the engine. The connection guard
// prevents a stale handler (e.g. a user ID that re-joined on a new
// connection) from unmapping the live one.
func (s *Server) removeUser(id int, sc *serverConn) {
	s.opMu.Lock()
	defer s.opMu.Unlock()
	s.mu.Lock()
	if cur, ok := s.userConns[id]; ok && cur == sc {
		delete(s.userConns, id)
	} else if ok {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	// With ReassignOnLeave policies the departure may rebalance the
	// remaining users; forward those directives like any other.
	if dirs, ok := s.engine.Leave(id); ok && len(dirs) > 0 {
		s.pushDirectives(dirs)
	}
}

// pushDirectives forwards engine directives to the affected agents'
// connections. Callers hold opMu, which keeps pushes in engine order.
func (s *Server) pushDirectives(dirs []Directive) {
	s.push(dirs, nil)
}

// push is pushDirectives for an operation whose directives may include
// a join reply: joining, when non-nil, is the connection that just
// joined.
//
// A churn burst is coalesced: one pass under s.mu resolves every
// directive's connection, directives sharing a connection are grouped
// (preserving engine order within each), and each connection's batch is
// delivered as one unit — a single coalesced write. Nothing here blocks
// on a slow reader: queues are bounded, and a slow reader's overflow is
// shed and counted (Stats.DroppedPushes) rather than stalling every
// other agent's push behind one stuck socket. Per-connection FIFO order
// is preserved, so the directives an agent does receive are in engine
// order even when some in between were shed.
func (s *Server) push(dirs []Directive, joining *serverConn) {
	if len(dirs) == 0 {
		return
	}
	type batch struct {
		sc   *serverConn
		msgs []Message
	}
	// Directive bursts rarely span many distinct connections relative to
	// their size; a small slice keyed by identity beats a map until the
	// fan-out is genuinely wide.
	batches := make([]batch, 0, 8)
	s.mu.Lock()
	for _, d := range dirs {
		sc := s.userConns[d.UserID]
		if sc == nil {
			continue
		}
		msg := Message{
			Type:          MsgAssociate,
			UserID:        d.UserID,
			Extender:      d.Extender,
			Reassociation: d.Reassociation,
		}
		found := false
		for i := range batches {
			if batches[i].sc == sc {
				batches[i].msgs = append(batches[i].msgs, msg)
				found = true
				break
			}
		}
		if !found {
			batches = append(batches, batch{sc: sc, msgs: []Message{msg}})
		}
	}
	s.mu.Unlock()
	for i := range batches {
		s.deliver(batches[i].sc, batches[i].msgs, batches[i].sc == joining)
	}
}

// deliver hands one connection's batch to its socket. A join reply
// (joinReply) goes out inline when the connection has no writer and the
// server has never written to it: the socket's send buffer is then
// empty and the batch is one small frame, so the write cannot block
// (WriteTimeout still bounds it). It finishes under opMu and outMu,
// before any later push to the connection can queue, so engine order
// holds. Every other batch goes through the connection's bounded
// outbox, whose writer goroutine the first such batch starts.
func (s *Server) deliver(sc *serverConn, msgs []Message, joinReply bool) {
	sc.outMu.Lock()
	defer sc.outMu.Unlock()
	if sc.outClosed {
		return
	}
	if joinReply && sc.out == nil && !sc.wrote {
		sc.wrote = true
		if err := sc.wc.sendBatch(msgs); err != nil {
			sc.dead.Store(true)
			s.logf("push %d directives: %v", len(msgs), err)
		}
		return
	}
	if sc.out == nil {
		// The handler has not closed the outbox, so it has not returned
		// and the WaitGroup is above zero: this Add cannot race Wait.
		sc.out = make(chan []Message, s.cfg.PushQueueDepth)
		s.wg.Add(1)
		go s.connWriter(sc, sc.out)
	}
	select {
	case sc.out <- msgs:
	default:
		s.droppedPushes.Add(int64(len(msgs)))
		s.logf("push queue full: dropped %d directives", len(msgs))
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}
