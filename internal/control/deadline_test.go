package control

import (
	"net"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/model"
)

// deadlineServer starts a controller whose read deadline is short enough
// to trip inside a test.
func deadlineServer(t *testing.T, readTimeout time.Duration) *Server {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps:   []float64{60, 20},
			Policy:    PolicyWOLT,
			ModelOpts: model.Options{Redistribute: true},
		},
		ReadTimeout: readTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestSlowClientDroppedBeforeJoin pins the satellite contract: a client
// that connects and then never sends a byte is disconnected when the
// read deadline expires, instead of pinning a handler goroutine forever.
func TestSlowClientDroppedBeforeJoin(t *testing.T) {
	s := deadlineServer(t, 150*time.Millisecond)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The server should close the connection shortly after the deadline;
	// our read unblocks with EOF/reset well inside the test timeout.
	_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept a silent connection alive past its read deadline")
	}
}

// TestSlowClientAfterJoinTreatedAsDeparted joins through a raw
// connection (no agent, so no MsgPing keepalives) and then goes silent:
// the expired deadline must count as an implicit leave and free the
// user's capacity.
func TestSlowClientAfterJoinTreatedAsDeparted(t *testing.T) {
	s := deadlineServer(t, 150*time.Millisecond)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc, err := dialWireConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.send(Message{Type: MsgJoin, UserID: 1, Rates: []float64{15, 10}}); err != nil {
		t.Fatal(err)
	}
	// First reply is our own associate directive.
	msg, err := wc.recv()
	if err != nil || msg.Type != MsgAssociate {
		t.Fatalf("got (%+v, %v), want an associate directive", msg, err)
	}
	waitFor(t, func() bool { return s.StatsSnapshot().Users == 1 })

	// Now stall. The server must drop us and record the leave.
	waitFor(t, func() bool {
		st := s.StatsSnapshot()
		return st.Users == 0 && st.Leaves == 1
	})
}

// TestKeepaliveMessageAccepted checks that a MsgPing is silently
// consumed — it must neither error nor disturb the session.
func TestKeepaliveMessageAccepted(t *testing.T) {
	s := deadlineServer(t, time.Second)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	wc, err := dialWireConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.send(Message{Type: MsgJoin, UserID: 1, Rates: []float64{15, 10}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := wc.recv(); err != nil || msg.Type != MsgAssociate {
		t.Fatalf("got (%+v, %v), want an associate directive", msg, err)
	}
	if err := wc.send(Message{Type: MsgPing}); err != nil {
		t.Fatal(err)
	}
	// The session is still live: a stats request round-trips.
	if err := wc.send(Message{Type: MsgStats}); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.recv()
	if err != nil || msg.Type != MsgStatsReply || msg.Stats == nil || msg.Stats.Users != 1 {
		t.Fatalf("got (%+v, %v), want a stats reply with 1 user", msg, err)
	}
}

// TestServerRedirectHook wires two servers together through the
// Redirect hook (the shard layer's handoff mechanism) and checks that
// the agent transparently follows MsgRedirect to the owning server.
func TestServerRedirectHook(t *testing.T) {
	owner, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps:   []float64{60, 20},
			Policy:    PolicyWOLT,
			ModelOpts: model.Options{Redistribute: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = owner.Close() })

	front, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps:   []float64{60, 20},
			Policy:    PolicyWOLT,
			ModelOpts: model.Options{Redistribute: true},
		},
		Redirect: func(userID int, rates []float64) (string, bool) {
			return owner.Addr(), true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = front.Close() })

	a := dial(t, front, 1)
	ext, err := a.Join([]float64{15, 10}, nil, testTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if ext == model.Unassigned {
		t.Fatal("redirected join produced no association")
	}
	if st := owner.StatsSnapshot(); st.Users != 1 {
		t.Errorf("owner has %d users, want 1 (join should land there)", st.Users)
	}
	if st := front.StatsSnapshot(); st.Users != 0 {
		t.Errorf("front server has %d users, want 0 (it redirected)", st.Users)
	}
}
