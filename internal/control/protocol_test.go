package control

import (
	"net"
	"sync/atomic"
	"testing"
)

// pipeRoundTrip sends in through one wireConn and receives it on
// another across an in-memory pipe.
func pipeRoundTrip(t *testing.T, in Message) Message {
	t.Helper()
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- newWireConn(client, nil).send(in) }()
	out, err := newWireConn(server, nil).recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return out
}

// TestAssociateExtenderZeroRoundTrip pins the wire contract for
// extender 0: the first extender is a perfectly ordinary directive
// target, and a first association (Reassociation false) is a statement,
// not an absence — both must survive the trip.
func TestAssociateExtenderZeroRoundTrip(t *testing.T) {
	out := pipeRoundTrip(t, Message{Type: MsgAssociate, UserID: 3, Extender: 0, Reassociation: false})
	if out.Type != MsgAssociate || out.UserID != 3 || out.Extender != 0 || out.Reassociation {
		t.Errorf("round trip mangled the message: %+v", out)
	}
}

// TestRedirectRoundTrip covers the shard handoff message.
func TestRedirectRoundTrip(t *testing.T) {
	out := pipeRoundTrip(t, Message{Type: MsgRedirect, UserID: 9, Addr: "127.0.0.1:4242"})
	if out.Type != MsgRedirect || out.UserID != 9 || out.Addr != "127.0.0.1:4242" {
		t.Errorf("round trip mangled the message: %+v", out)
	}
}

// countingConn wraps a net.Conn and counts Write calls (one syscall
// each on a real socket).
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}
