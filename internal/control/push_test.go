package control

import (
	"net"
	"testing"
	"time"

	"github.com/plcwifi/wolt/internal/wire"
)

// TestSlowReaderShedsPushes pins the back-pressure contract of the
// bounded per-connection outbox: a stalled reader fills its own queue
// and sheds directives (counted in Stats.DroppedPushes) while a healthy
// agent on the same server keeps receiving every push — one stuck
// socket must not stall the push path for everyone else.
func TestSlowReaderShedsPushes(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps: []float64{100, 100},
			Policy:  PolicyRSSI,
		},
		PushQueueDepth: 2,
		WriteTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	healthy, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	if _, err := healthy.Join([]float64{80, 20}, []float64{-50, -70}, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// The stalled user is a raw socket that completes the handshake and
	// the join but never reads another byte.
	const stalledID = 2
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if tc, ok := raw.(*net.TCPConn); ok {
		_ = tc.SetReadBuffer(2048) // shrink the kernel's slack so the stall bites fast
	}
	if _, err := raw.Write([]byte{wire.Hello, wire.Version1}); err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendFrame(nil, &Message{
		Type: MsgJoin, UserID: stalledID,
		Rates: []float64{20, 80}, RSSI: []float64{-70, -50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}

	// Wait until the server has mapped the stalled user's connection,
	// then shrink its kernel-side write buffer too.
	var stalledConn *serverConn
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		srv.mu.Lock()
		stalledConn = srv.userConns[stalledID]
		srv.mu.Unlock()
		if stalledConn != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stalledConn == nil {
		t.Fatal("stalled user never joined")
	}
	if tc, ok := stalledConn.c.(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(2048)
	}

	// Flood the stalled connection: each push is one outbox batch, big
	// enough that the first one overruns the kernel buffers and parks the
	// writer goroutine until its write deadline. Queue depth 2 means
	// almost everything after that is shed and counted.
	burst := make([]Directive, 1000)
	for i := range burst {
		burst[i] = Directive{UserID: stalledID, Extender: i % 2, Reassociation: true}
	}
	for i := 0; i < 20; i++ {
		srv.pushDirectives(burst)
	}

	// The healthy connection must still drain its pushes promptly even
	// while the stalled writer is parked: each push, awaited to delivery,
	// proves the stalled socket isn't blocking anyone else. (Pushes are
	// paced because the tiny test queue depth applies to the healthy
	// connection too.)
	const extraPushes = 5
	before := healthy.Directives()
	for i := 1; i <= extraPushes; i++ {
		srv.pushDirectives([]Directive{{UserID: 1, Extender: 0, Reassociation: true}})
		for deadline := time.Now().Add(2 * time.Second); healthy.Directives() < before+i; {
			if !time.Now().Before(deadline) {
				t.Fatalf("healthy agent saw %d of %d pushes while a peer was stalled",
					healthy.Directives()-before, i)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	if st := srv.StatsSnapshot(); st.DroppedPushes == 0 {
		t.Error("flooding a stalled reader dropped nothing: back-pressure is unbounded")
	} else {
		t.Logf("dropped %d directives at the stalled connection", st.DroppedPushes)
	}
}
