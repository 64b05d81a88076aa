package control

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/plcwifi/wolt/internal/model"
)

// keepaliveInterval is how often an idle agent pings the controller so
// the server-side read deadline (DefaultIOTimeout) never fires on a
// healthy connection.
const keepaliveInterval = 10 * time.Second

// maxRedirectHops bounds how many MsgRedirect bounces one Join follows
// before giving up (a misconfigured shard ring could otherwise loop).
const maxRedirectHops = 8

// Agent is a user-side client of the central controller. It sends the
// user's scan report on Join, follows cross-shard redirects to the
// controller that owns its best-rate extender, and tracks the
// association directives the controller pushes (including later
// re-associations).
type Agent struct {
	userID int

	mu       sync.Mutex
	wc       *wireConn
	extender int
	moves    int // directives that changed an existing association
	lastErr  error

	// associates and redirects count protocol events across the agent's
	// lifetime (every MsgAssociate seen and every redirect hop followed);
	// unlike the directives channel they never drop, so harnesses can
	// meter delivered directives exactly.
	associates atomic.Int64
	redirects  atomic.Int64

	// directives and statsReplies are replaced wholesale when a Join
	// follows a redirect to another shard; always read them through
	// dirCh/statsCh. Stats replies get their own channel so a concurrent
	// WaitForMove (which drains directives) can never steal them — and
	// vice versa. One slot suffices: each Stats call waits for its
	// reply before returning.
	directives   chan Message
	statsReplies chan Message
	// readerDone is closed when the current connection's read loop
	// exits: the controller closed the connection, or the agent did.
	// Replaced with the connection on a redirect.
	readerDone chan struct{}

	// keepalive fires ping every keepaliveInterval; stopped (under mu)
	// keeps ping from re-arming it once Leave or Close has stopped it.
	keepalive *time.Timer
	stopped   bool
}

// Dial connects an agent to the controller at addr.
func Dial(addr string, userID int) (*Agent, error) {
	wc, err := dialAddr(addr)
	if err != nil {
		return nil, err
	}
	return newAgent(wc, userID), nil
}

// newAgent starts an agent on a dialed connection: its read loop and
// its keepalive timer.
func newAgent(wc *wireConn, userID int) *Agent {
	a := &Agent{
		userID:       userID,
		wc:           wc,
		extender:     model.Unassigned,
		directives:   make(chan Message, 16),
		statsReplies: make(chan Message, 1),
		readerDone:   make(chan struct{}),
	}
	go a.readLoop(wc, a.directives, a.statsReplies, a.readerDone)
	a.mu.Lock()
	a.keepalive = time.AfterFunc(keepaliveInterval, a.ping)
	a.mu.Unlock()
	return a
}

// dialAddr opens a TCP connection to addr; the wire hello leads the
// agent's first message.
func dialAddr(addr string) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("control: dial %s: %w", addr, err)
	}
	return dialWireConn(conn)
}

// send writes a message on the agent's current connection; wireConn
// serializes concurrent writers (a keepalive ping vs Join/UpdateScan).
func (a *Agent) send(m Message) error {
	a.mu.Lock()
	wc := a.wc
	a.mu.Unlock()
	return wc.send(m)
}

func (a *Agent) dirCh() chan Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.directives
}

func (a *Agent) statsCh() chan Message {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.statsReplies
}

// readLoop drains one connection; it exits (closing that connection's
// channels and the connection itself) when the connection dies or is
// replaced by a redirect.
func (a *Agent) readLoop(wc *wireConn, directives, statsReplies chan Message, readerDone chan struct{}) {
	defer close(readerDone)
	defer close(directives)
	defer close(statsReplies)
	for {
		msg, err := wc.recv()
		if err != nil {
			_ = wc.close() // already dead; this releases the socket
			return
		}
		// wireConn.recv reuses its decode scratch, so slice fields are
		// only valid until the next recv. No server→agent message
		// carries meaningful vectors; drop them before the message
		// outlives this iteration via a channel.
		msg.Rates, msg.RSSI = nil, nil
		switch msg.Type {
		case MsgAssociate:
			a.associates.Add(1)
			a.mu.Lock()
			if a.extender != model.Unassigned && msg.Extender != a.extender {
				a.moves++
			}
			a.extender = msg.Extender
			a.mu.Unlock()
		case MsgError:
			a.mu.Lock()
			a.lastErr = errors.New(msg.Error)
			a.mu.Unlock()
		case MsgStatsReply:
			select {
			case statsReplies <- msg:
			default:
			}
			continue // never mixed into the directive stream
		}
		select {
		case directives <- msg:
		default:
			// Slow consumer: drop the notification; state above is
			// already updated.
		}
	}
}

// ping keeps the agent's connection alive, so the server's per-read
// deadline never drops a healthy idle connection, and re-arms the
// keepalive timer until Leave or Close stops it. The timer holds no
// goroutine between pings.
func (a *Agent) ping() {
	// A failed ping means the connection is gone; the read loop
	// observes that independently.
	_ = a.send(Message{Type: MsgPing})
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.stopped {
		a.keepalive.Reset(keepaliveInterval)
	}
}

// stopKeepalive stops the keepalive for good; a ping already running
// does not re-arm it.
func (a *Agent) stopKeepalive() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stopped = true
	a.keepalive.Stop()
}

// redial replaces the agent's connection with one to addr (following a
// cross-shard MsgRedirect). Only Join triggers redials, before the
// agent is associated; concurrent WaitForMove/Stats calls started
// before the redial observe a closed-connection error.
func (a *Agent) redial(addr string) error {
	a.mu.Lock()
	old, oldDone := a.wc, a.readerDone
	a.mu.Unlock()
	_ = old.close()
	<-oldDone

	wc, err := dialAddr(addr)
	if err != nil {
		return fmt.Errorf("control: redirect to %s: %w", addr, err)
	}
	directives := make(chan Message, 16)
	statsReplies := make(chan Message, 1)
	readerDone := make(chan struct{})
	a.mu.Lock()
	a.wc = wc
	a.directives = directives
	a.statsReplies = statsReplies
	a.readerDone = readerDone
	a.mu.Unlock()
	go a.readLoop(wc, directives, statsReplies, readerDone)
	return nil
}

// Join sends the agent's scan report (per-extender WiFi rates and RSSI)
// and waits for the controller's first association directive. When a
// shard-member controller answers with a redirect, Join re-dials the
// owning member and re-sends the report (at most maxRedirectHops times).
func (a *Agent) Join(rates, rssi []float64, timeout time.Duration) (int, error) {
	joinMsg := Message{
		Type:   MsgJoin,
		UserID: a.userID,
		Rates:  rates,
		RSSI:   rssi,
	}
	if err := a.send(joinMsg); err != nil {
		return 0, fmt.Errorf("control: join: %w", err)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	hops := 0
	for {
		select {
		case msg, ok := <-a.dirCh():
			if !ok {
				return 0, errors.New("control: connection closed before directive")
			}
			switch msg.Type {
			case MsgAssociate:
				if msg.UserID == a.userID {
					return msg.Extender, nil
				}
			case MsgRedirect:
				hops++
				a.redirects.Add(1)
				if hops > maxRedirectHops {
					return 0, fmt.Errorf("control: join: gave up after %d redirects", hops-1)
				}
				if err := a.redial(msg.Addr); err != nil {
					return 0, err
				}
				if err := a.send(joinMsg); err != nil {
					return 0, fmt.Errorf("control: join after redirect: %w", err)
				}
			case MsgError:
				return 0, errors.New(msg.Error)
			}
		case <-deadline.C:
			return 0, errors.New("control: timed out waiting for association directive")
		}
	}
}

// Extender returns the agent's current association (model.Unassigned
// before the first directive).
func (a *Agent) Extender() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.extender
}

// Moves returns how many times the controller re-associated this agent.
func (a *Agent) Moves() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.moves
}

// Directives returns how many association directives this agent has
// received over its lifetime (join confirmations and re-associations;
// exact — unlike the notification channel, this count never drops).
func (a *Agent) Directives() int {
	return int(a.associates.Load())
}

// Redirects returns how many cross-shard redirect hops this agent has
// followed.
func (a *Agent) Redirects() int {
	return int(a.redirects.Load())
}

// WaitForMove blocks until the agent's association changes from the given
// extender or the timeout expires, returning the new extender.
func (a *Agent) WaitForMove(from int, timeout time.Duration) (int, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		if cur := a.Extender(); cur != from && cur != model.Unassigned {
			return cur, nil
		}
		select {
		case _, ok := <-a.dirCh():
			if !ok {
				if cur := a.Extender(); cur != from && cur != model.Unassigned {
					return cur, nil
				}
				return 0, errors.New("control: connection closed while waiting for move")
			}
		case <-deadline.C:
			return 0, errors.New("control: timed out waiting for re-association")
		}
	}
}

// Stats asks the controller for its snapshot. Replies arrive on a
// dedicated channel, so Stats is safe to call concurrently with
// WaitForMove or Join.
func (a *Agent) Stats(timeout time.Duration) (Stats, error) {
	if err := a.send(Message{Type: MsgStats}); err != nil {
		return Stats{}, err
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case msg, ok := <-a.statsCh():
			if !ok {
				return Stats{}, errors.New("control: connection closed before stats reply")
			}
			if msg.Stats != nil {
				return *msg.Stats, nil
			}
		case <-deadline.C:
			return Stats{}, errors.New("control: timed out waiting for stats")
		}
	}
}

// UpdateScan reports a fresh radio scan to the controller (mobility).
// Any resulting re-association arrives asynchronously; use Extender or
// WaitForMove to observe it.
func (a *Agent) UpdateScan(rates, rssi []float64) error {
	return a.send(Message{
		Type:   MsgUpdate,
		UserID: a.userID,
		Rates:  rates,
		RSSI:   rssi,
	})
}

// Leave tells the controller the user is departing. The controller
// drops the user and then closes the connection; the agent's read loop
// releases its side when it sees that, and Closed fires. Leave does not
// wait for it.
func (a *Agent) Leave() error {
	a.stopKeepalive()
	if err := a.send(Message{Type: MsgLeave, UserID: a.userID}); err != nil {
		_ = a.Close()
		return err
	}
	return nil
}

// Closed returns a channel that is closed once the agent's connection
// is gone: after Leave, once the controller has dropped the user and
// closed its side.
func (a *Agent) Closed() <-chan struct{} {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.readerDone
}

// Close tears the connection down without a leave message (an abrupt
// disconnect, which the controller also treats as a departure).
func (a *Agent) Close() error {
	a.stopKeepalive()
	a.mu.Lock()
	wc, readerDone := a.wc, a.readerDone
	a.mu.Unlock()
	err := wc.close()
	<-readerDone
	return err
}
