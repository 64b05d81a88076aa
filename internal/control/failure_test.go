package control

import (
	"net"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/wire"
)

// Failure-injection tests: the controller must survive malformed input,
// half-open connections and shutdown races without leaking users or
// goroutines.

// assertRefused checks that the server closes conn promptly after the
// client sent opening: the client's Read must fail within testTimeout
// instead of waiting out the server's read deadline.
func assertRefused(t *testing.T, s *Server, opening []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
	start := time.Now()
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatalf("server answered opening %q instead of closing the connection", opening)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("server kept the connection opened with %q alive for %v", opening, time.Since(start))
	}
}

func TestServerSurvivesGarbageBytes(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	// Text, a wrong first byte before a valid version, and a hello
	// offering a version the server does not speak: each is refused
	// with a close.
	assertRefused(t, s, []byte("this is not a hello\n{\"also\": bad\n"))
	assertRefused(t, s, []byte{wire.Hello + 1, wire.Version1})
	assertRefused(t, s, []byte{wire.Hello, wire.Version1 + 1})

	// The controller must still serve well-formed agents.
	a := dial(t, s, 1)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatalf("join after garbage: %v", err)
	}
}

func TestServerSurvivesPartialMessageThenDisconnect(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	// The hello plus a join frame cut off mid-payload, then a hard close.
	frame, err := wire.AppendFrame(nil, &Message{Type: MsgJoin, UserID: 9, Rates: []float64{15, 10}})
	if err != nil {
		t.Fatal(err)
	}
	opening := append([]byte{wire.Hello, wire.Version1}, frame[:len(frame)-5]...)
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	_ = conn.Close()

	a := dial(t, s, 2)
	if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	if got := s.StatsSnapshot().Users; got != 1 {
		t.Errorf("users = %d, want 1 (half-open join must not register)", got)
	}
}

// TestServerSurvivesUnknownMessageType sends a well-formed message of a
// type only the controller may send: the server answers with an error
// and keeps the session.
func TestServerSurvivesUnknownMessageType(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	wc, err := dialWireConn(conn)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.send(Message{Type: MsgAssociate, UserID: 1}); err != nil {
		t.Fatal(err)
	}
	msg, err := wc.recv()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Type != MsgError {
		t.Errorf("reply type = %q, want error", msg.Type)
	}
}

func TestAgentDisconnectDuringRecompute(t *testing.T) {
	// User 1 joins, then its connection dies. User 2's join triggers a
	// WOLT recompute whose directive push to user 1 fails; the server
	// must carry on.
	s := fig3Server(t, PolicyWOLT)
	a1 := dial(t, s, 1)
	if _, err := a1.Join([]float64{15, 10}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	_ = a1.Close()
	// The server may or may not have processed the disconnect yet; both
	// orders must work.
	a2 := dial(t, s, 2)
	if _, err := a2.Join([]float64{40, 20}, nil, testTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return s.StatsSnapshot().Users == 1 })
}

func TestServerCloseWithLiveAgents(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps: []float64{60, 20},
			Policy:  PolicyWOLT,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var agents []*Agent
	for i := 0; i < 5; i++ {
		a, err := Dial(s.Addr(), i)
		if err != nil {
			t.Fatal(err)
		}
		agents = append(agents, a)
		if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	// Close must return (no goroutine deadlock) even with live agents.
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case <-done:
	case <-time.After(testTimeout):
		t.Fatal("server Close deadlocked with live agents")
	}
	for _, a := range agents {
		_ = a.Close()
	}
}

func TestAgentJoinAfterServerGone(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps: []float64{60, 20},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	a, err := Dial(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join([]float64{15, 10}, nil, 500*time.Millisecond); err == nil {
		t.Error("join against closed server: want error")
	}
}

func TestAgentStatsTimeout(t *testing.T) {
	// A server that accepts but never replies: Stats must time out.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	a, err := Dial(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	if _, err := a.Stats(200 * time.Millisecond); err == nil {
		t.Error("stats against mute server: want timeout error")
	}
}

func TestRapidChurn(t *testing.T) {
	// Joins and leaves in quick succession must keep counters coherent.
	s := fig3Server(t, PolicyWOLT)
	for round := 0; round < 10; round++ {
		a, err := Dial(s.Addr(), round)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Join([]float64{15, 10}, nil, testTimeout); err != nil {
			t.Fatal(err)
		}
		if err := a.Leave(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		st := s.StatsSnapshot()
		return st.Users == 0 && st.Joins == 10 && st.Leaves == 10
	})
}
