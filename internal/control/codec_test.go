package control

import (
	"net"
	"reflect"
	"testing"
	"time"
)

// TestCodecDifferential drives one fixed agent session — join, scan
// update, a topology-forced move, a stats query, leave — over the wire
// codec and checks every observable: join placement, re-association
// target and the stats snapshot's counters.
func TestCodecDifferential(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", ServerConfig{
		EngineConfig: EngineConfig{
			PLCCaps: []float64{100, 100, 100},
			Policy:  PolicyWOLT,
			Seed:    42,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A bystander pinned to extender 2 so the mover's directives have an
	// audience beyond itself.
	other, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, err := other.Join([]float64{0, 0, 50}, []float64{-90, -90, -50}, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	a, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ext, err := a.Join([]float64{120, 30, 0}, []float64{-50, -70, -90}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ext != 0 {
		t.Errorf("join placed user 1 on extender %d, want 0", ext)
	}

	// Mobility: the user walks away from its extender toward another;
	// the policy must move it.
	if err := a.UpdateScan([]float64{5, 200, 0}, []float64{-85, -45, -90}); err != nil {
		t.Fatal(err)
	}
	moved, err := a.WaitForMove(ext, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 1 {
		t.Errorf("update moved user 1 to extender %d, want 1", moved)
	}

	stats, err := a.Stats(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{
		Policy:         PolicyWOLT,
		Users:          2,
		Joins:          2,
		Reassociations: 1,
		Assignment:     map[int]int{1: 1, 2: 2},
	}
	if !reflect.DeepEqual(stats, want) {
		t.Errorf("stats over the wire = %+v, want %+v", stats, want)
	}
	if err := a.Leave(); err != nil {
		t.Fatal(err)
	}
}

// TestWireSendBatchCoalesces asserts a wireConn burst reaches the kernel
// as ONE write, and every frame survives intact and in order.
func TestWireSendBatchCoalesces(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	cw := &countingConn{Conn: client}
	wc := newWireConn(cw, nil)
	defer wc.close()

	msgs := make([]Message, 25)
	for i := range msgs {
		msgs[i] = Message{Type: MsgAssociate, UserID: i, Extender: i % 3}
	}
	done := make(chan error, 1)
	go func() { done <- wc.sendBatch(msgs) }()

	// Drain the server side: read every frame back and check the burst
	// arrived intact and in order.
	rc := newWireConn(server, nil)
	for i := range msgs {
		got, err := rc.recv()
		if err != nil {
			t.Fatalf("recv of message %d: %v", i, err)
		}
		if got.UserID != msgs[i].UserID || got.Extender != msgs[i].Extender {
			t.Fatalf("message %d arrived as %+v, want %+v", i, got, msgs[i])
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("sendBatch: %v", err)
	}
	if n := cw.writes.Load(); n != 1 {
		t.Errorf("burst of %d messages used %d writes, want 1", len(msgs), n)
	}
}
