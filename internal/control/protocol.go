// Package control implements WOLT's control plane (§V-A of the paper): a
// Central Controller (CC) process and per-user agents that talk a
// length-prefixed binary protocol over TCP. An agent scans the
// reachable extenders, estimates its WiFi rate to each (from the NIC's
// modulation and coding feedback — here, the radio model), and reports
// the estimates to the CC; the CC runs the configured association
// policy (WOLT, Greedy or RSSI) and pushes association directives back.
// WOLT may re-associate existing users when topology changes; Greedy
// and RSSI never do.
//
// The package is layered (DESIGN.md §9): Engine is the transport-free
// policy/state core (association bookkeeping plus strategy execution),
// Server is a thin TCP adapter over an Engine, and Agent is the
// user-side client. internal/shard composes several Engines behind a
// consistent-hash ring; the MsgRedirect message is how a shard member
// bounces an agent to the shard that owns its best-rate extender.
//
// The message types and the binary frame codec live in internal/wire
// (DESIGN.md §15) and are aliased here; this file owns the framed
// connection (wireConn) and the version handshake both ends perform.
package control

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/plcwifi/wolt/internal/wire"
)

// Message types exchanged between agents and the controller; see the
// internal/wire constants for per-type semantics.
const (
	MsgJoin       = wire.MsgJoin
	MsgLeave      = wire.MsgLeave
	MsgUpdate     = wire.MsgUpdate
	MsgAssociate  = wire.MsgAssociate
	MsgRedirect   = wire.MsgRedirect
	MsgPing       = wire.MsgPing
	MsgStats      = wire.MsgStats
	MsgStatsReply = wire.MsgStatsReply
	MsgError      = wire.MsgError
)

// Message is the single wire format; fields are used according to Type
// (defined in internal/wire, which also owns the frame codec).
type Message = wire.Message

// Stats is a controller snapshot (defined in internal/wire so stats
// replies can cross the wire).
type Stats = wire.Stats

// handshake reads a just-accepted connection's two-byte hello
// [wire.Hello, wire.Version1] and wraps the connection (server side).
// A connection whose first byte is not the hello, or whose version this
// server does not speak, is refused and the caller closes it. The read
// honors readTimeout so a connect-and-say-nothing client cannot pin the
// handler goroutine. The error wraps io.EOF only when the peer closed
// before sending a byte; a close inside the hello is io.ErrUnexpectedEOF.
func handshake(c net.Conn, readTimeout, writeTimeout time.Duration) (*wireConn, error) {
	if readTimeout > 0 {
		if err := c.SetReadDeadline(time.Now().Add(readTimeout)); err != nil {
			return nil, err
		}
	}
	br := bufio.NewReaderSize(c, connReadBuf)
	first, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("control: handshake read: %w", err)
	}
	if first != wire.Hello {
		return nil, fmt.Errorf("control: handshake: first byte %#x is not the wire hello", first)
	}
	version, err := br.ReadByte()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("control: handshake read: %w", err)
	}
	if version != wire.Version1 {
		return nil, fmt.Errorf("control: unsupported wire version %d", version)
	}
	wc := newWireConn(c, br)
	wc.readTimeout, wc.writeTimeout = readTimeout, writeTimeout
	return wc, nil
}

// connReadBuf sizes each connection's buffered reader. Steady-state
// frames are a few hundred bytes (a scan report is 8 bytes per
// extender); at city scale (10^4+ concurrent connections in one
// process) the default 4 KiB bufio buffers are the dominant per-user
// memory cost, so every connection uses this smaller size.
const connReadBuf = 1024

// wireConn wraps a TCP connection with the internal/wire binary
// framing. sendMu serializes writers (the server's outbound writer
// goroutine vs the handler's direct replies; the agent's keepalive
// timer vs Join/UpdateScan) and guards the reused encode buffer and the
// pending hello.
// recvMsg/recvBuf are the decode scratch: recv is only ever called from
// one goroutine (the server handler or the agent read loop), and each
// returned Message is consumed before the next recv, so its slices may
// alias the scratch — the discipline that makes the steady-state
// exchange allocation-free in both directions.
type wireConn struct {
	c net.Conn
	r *bufio.Reader

	sendMu sync.Mutex
	encBuf []byte
	hello  bool // the client's hello is not sent yet; it leads the first write

	recvMsg Message
	recvBuf []byte

	readTimeout  time.Duration
	writeTimeout time.Duration

	closeOnce sync.Once
	closeErr  error
}

func newWireConn(c net.Conn, r *bufio.Reader) *wireConn {
	if r == nil {
		r = bufio.NewReaderSize(c, connReadBuf)
	}
	return &wireConn{c: c, r: r}
}

// dialWireConn builds the client side of a connection. The two-byte
// hello is not written on its own: it leads the first send or
// sendBatch, so the byte stream is unchanged and a client's opening
// message costs one write. It writes nothing, so it cannot fail; the
// error result is always nil.
func dialWireConn(c net.Conn) (*wireConn, error) {
	wc := newWireConn(c, nil)
	wc.hello = true
	return wc, nil
}

// start returns the encode buffer, emptied, with the pending hello at
// its head. Callers hold sendMu.
func (wc *wireConn) start() []byte {
	buf := wc.encBuf[:0]
	if wc.hello {
		buf = append(buf, wire.Hello, wire.Version1)
	}
	return buf
}

// write hands the encoded buffer to the kernel as one write; the hello,
// if it led, is then sent. Callers hold sendMu.
func (wc *wireConn) write(buf []byte) error {
	wc.encBuf = buf
	if err := armWrite(wc.c, wc.writeTimeout); err != nil {
		return err
	}
	wc.hello = false
	_, err := wc.c.Write(buf)
	return err
}

func (wc *wireConn) send(m Message) error {
	wc.sendMu.Lock()
	defer wc.sendMu.Unlock()
	buf, err := wire.AppendFrame(wc.start(), &m)
	if err != nil {
		return err
	}
	return wc.write(buf)
}

// sendBatch coalesces a burst of messages at the frame level: every
// frame is appended to one reused buffer under ONE lock acquisition and
// handed to the kernel as ONE write — a recompute that moves k users
// costs one syscall per connection, not k.
func (wc *wireConn) sendBatch(msgs []Message) error {
	if len(msgs) == 0 {
		return nil
	}
	wc.sendMu.Lock()
	defer wc.sendMu.Unlock()
	buf := wc.start()
	var err error
	for i := range msgs {
		if buf, err = wire.AppendFrame(buf, &msgs[i]); err != nil {
			wc.encBuf = buf[:0]
			return err
		}
	}
	return wc.write(buf)
}

func (wc *wireConn) recv() (Message, error) {
	if wc.readTimeout > 0 {
		if err := wc.c.SetReadDeadline(time.Now().Add(wc.readTimeout)); err != nil {
			return Message{}, err
		}
	}
	if err := wire.ReadFrame(wc.r, &wc.recvMsg, &wc.recvBuf); err != nil {
		return Message{}, err
	}
	return wc.recvMsg, nil
}

// close closes the connection once; later calls return the first
// call's error.
func (wc *wireConn) close() error {
	wc.closeOnce.Do(func() { wc.closeErr = wc.c.Close() })
	return wc.closeErr
}

// armWrite applies a write deadline to the burst that follows. Callers
// hold the conn's send mutex.
func armWrite(c net.Conn, timeout time.Duration) error {
	if timeout > 0 {
		return c.SetWriteDeadline(time.Now().Add(timeout))
	}
	return nil
}
