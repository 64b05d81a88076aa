package control

import (
	"bytes"
	"io"
	"log"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/wire"
)

// TestSecondJoinOnConnectionRefused pins one user per connection: a
// join for a second user ID on a connection that has already joined is
// refused with MsgError, so the close that departs the connection
// leaves no user behind.
func TestSecondJoinOnConnectionRefused(t *testing.T) {
	s := fig3Server(t, PolicyWOLT)
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
	if msg, err := wc.recv(); err != nil || msg.Type != MsgAssociate || msg.UserID != 1 {
		t.Fatalf("got (%+v, %v), want user 1's associate directive", msg, err)
	}
	if err := wc.send(Message{Type: MsgJoin, UserID: 2, Rates: []float64{40, 20}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := wc.recv(); err != nil || msg.Type != MsgError {
		t.Fatalf("got (%+v, %v), want an error refusing the second join", msg, err)
	}
	if st := s.StatsSnapshot(); st.Users != 1 {
		t.Fatalf("users = %d after a refused second join, want 1", st.Users)
	}
	_ = conn.Close()
	waitFor(t, func() bool { return s.StatsSnapshot().Users == 0 })
}

// TestAgentOpensWithHelloAndJoinInOneWrite pins the client byte stream:
// an agent's first bytes on the socket are exactly the wire hello
// followed by its join frame, handed to the connection as one write.
// net.Pipe delivers each Write to exactly one Read, so a single Read
// returning the whole opening proves it was one write.
func TestAgentOpensWithHelloAndJoinInOneWrite(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	_ = server.SetDeadline(time.Now().Add(testTimeout))
	// The reader starts first, so a client that wrote the hello on its
	// own would hand it over here instead of blocking.
	first := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 4096)
		n, _ := server.Read(buf)
		first <- buf[:n]
	}()

	wc, err := dialWireConn(client)
	if err != nil {
		t.Fatal(err)
	}
	a := newAgent(wc, 7)
	defer a.Close()
	rates, rssi := []float64{15, 10}, []float64{-50, -70}
	type result struct {
		ext int
		err error
	}
	joined := make(chan result, 1)
	go func() {
		ext, err := a.Join(rates, rssi, testTimeout)
		joined <- result{ext, err}
	}()

	frame, err := wire.AppendFrame(nil, &Message{Type: MsgJoin, UserID: 7, Rates: rates, RSSI: rssi})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte{wire.Hello, wire.Version1}, frame...)
	if got := <-first; !bytes.Equal(got, want) {
		t.Fatalf("first write = % x\nwant          % x", got, want)
	}

	reply, err := wire.AppendFrame(nil, &Message{Type: MsgAssociate, UserID: 7, Extender: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write(reply); err != nil {
		t.Fatal(err)
	}
	if r := <-joined; r.err != nil || r.ext != 1 {
		t.Fatalf("Join = (%d, %v), want (1, nil)", r.ext, r.err)
	}
}

// TestCloseBeforeHelloIsQuiet pins how the server logs a connection
// that ends inside the handshake. The hello rides with an agent's first
// frame, so an agent that closes before sending anything reaches the
// server as EOF before the hello: a quiet close, not logged. A close
// in the middle of the hello is still a failed handshake.
func TestCloseBeforeHelloIsQuiet(t *testing.T) {
	var logs lockedBuffer
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{PLCCaps: []float64{60, 20}, Policy: PolicyRSSI},
		Logger:       log.New(&logs, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// closeAfter sends opening, half-closes, and waits for the server to
	// close its side, which it does after deciding what to log.
	closeAfter := func(opening []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(opening); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(testTimeout))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("read after half-close: %v, want EOF", err)
		}
	}
	closeAfter(nil)
	if got := logs.String(); got != "" {
		t.Errorf("a close before the hello logged %q, want nothing", got)
	}
	closeAfter([]byte{wire.Hello})
	if got := logs.String(); !strings.Contains(got, "handshake") {
		t.Errorf("a close inside the hello logged %q, want a handshake failure", got)
	}
}

// lockedBuffer is a bytes.Buffer safe for a server's logger to write
// while a test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestIdleAgentsCostTwoGoroutinesPerConnection pins the per-connection
// cost of the transport: an idle joined agent holds its read loop and
// its server handler and nothing else (the keepalive is a timer, the
// join reply is written inline), and only a push after the join starts
// the connection's writer goroutine.
func TestIdleAgentsCostTwoGoroutinesPerConnection(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps: []float64{60, 20},
			Policy:  PolicyRSSI,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 16
	base := runtime.NumGoroutine()
	agents := make([]*Agent, n)
	for i := range agents {
		agents[i] = dial(t, s, i)
		if _, err := agents[i].Join([]float64{15, 10}, []float64{-50, -70}, testTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if got := settledGoroutines(base, 2*n); got > 2*n {
		t.Errorf("%d idle joined agents added %d goroutines, want at most %d", n, got, 2*n)
	}
	writerStarted := func(id int) bool {
		s.mu.Lock()
		sc := s.userConns[id]
		s.mu.Unlock()
		sc.outMu.Lock()
		defer sc.outMu.Unlock()
		return sc.out != nil
	}
	for i := range agents {
		if writerStarted(i) {
			t.Fatalf("user %d's join reply started a writer", i)
		}
	}

	// Under RSSI a scan whose strongest signal changes roams the user:
	// the re-association is a push, and it must arrive through a writer.
	if err := agents[0].UpdateScan([]float64{15, 10}, []float64{-70, -50}); err != nil {
		t.Fatal(err)
	}
	if ext, err := agents[0].WaitForMove(0, testTimeout); err != nil || ext != 1 {
		t.Fatalf("WaitForMove = (%d, %v), want (1, nil)", ext, err)
	}
	if !writerStarted(0) {
		t.Error("a re-association reached the agent without starting its writer")
	}
	if got := settledGoroutines(base, 2*n+1); got > 2*n+1 {
		t.Errorf("after one re-association the agents hold %d goroutines, want at most %d", got, 2*n+1)
	}
}

// settledGoroutines returns how many goroutines run beyond base, giving
// short-lived ones (a dial's deadline watcher, an earlier test's
// keepalive ping) up to a second to exit before it reports more than
// bound.
func settledGoroutines(base, bound int) int {
	got := runtime.NumGoroutine() - base
	for deadline := time.Now().Add(time.Second); got > bound && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		got = runtime.NumGoroutine() - base
	}
	return got
}

// BenchmarkAgentLifecycle prices one agent connection end to end: dial,
// join, leave, and wait until the controller has dropped the user and
// closed the connection.
func BenchmarkAgentLifecycle(b *testing.B) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps: []float64{60, 20},
			Policy:  PolicyRSSI,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rates, rssi := []float64{15, 10}, []float64{-50, -70}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := Dial(s.Addr(), i)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := a.Join(rates, rssi, testTimeout); err != nil {
			b.Fatal(err)
		}
		if err := a.Leave(); err != nil {
			b.Fatal(err)
		}
		<-a.Closed()
	}
}
