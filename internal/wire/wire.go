// Package wire is the WOLT control plane's wire layer: the protocol
// message types shared by agents and controllers, and a length-prefixed
// binary codec for them built for the city-scale hot path (scan reports
// up, association directives down, thousands of times per second per
// member).
//
// Frame layout (DESIGN.md §15):
//
//	[4B little-endian length][1B message type][payload]
//
// The length covers the type byte and the payload. The payload encodes
// every Message field in a fixed order — varints for the integer and
// string-length fields, one byte for booleans, raw little-endian IEEE
// 754 words for the float64 rate/RSSI vectors — so there is no field
// tagging, no reflection and no text to parse. Encoding appends to a
// caller-owned buffer and decoding reuses the slices of a caller-owned
// Message, which is how the conn layer reaches 0 allocs/op at steady
// state (pinned by TestWireSteadyStateAllocs).
//
// A connection opens with the two-byte hello [Hello, Version1]; a
// server closes a connection that opens with anything else
// (internal/control performs the handshake; this package only defines
// the bytes).
//
// The package is a stdlib-only leaf importable solely from
// internal/control and internal/shard (scripts/lint-imports.sh): every
// other layer speaks through the control plane's types, which alias the
// ones defined here.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Handshake bytes. A client writes [Hello, Version1] before its first
// frame; servers refuse connections that open with anything else.
const (
	// Hello is the protocol's magic byte. 0xA7 is outside ASCII, so a
	// stray text client fails the handshake on its first byte.
	Hello byte = 0xA7
	// Version1 is the only frame-layout version; a server closes
	// connections offering a version it does not speak.
	Version1 byte = 1
)

// MaxFrame bounds one frame's length field (64 MiB). A stats reply
// carrying a million-user assignment map fits with an order of
// magnitude to spare; anything larger is a corrupt or hostile peer and
// is rejected before any allocation happens.
const MaxFrame = 1 << 26

// MsgType discriminates protocol messages. Its value is the frame's
// type byte; code 0 is reserved so a zeroed header byte is always
// invalid.
type MsgType byte

// Message types exchanged between agents and the controller. Their
// values are the wire codes 1–9 (join=1 … error=9), so the order below
// is part of the frame format.
const (
	// MsgJoin is sent by an agent when it needs an association. It
	// carries the agent's user ID and its scan report.
	MsgJoin MsgType = iota + 1
	// MsgLeave is sent by an agent that is disconnecting.
	MsgLeave
	// MsgUpdate is sent by an associated agent whose radio environment
	// changed (mobility): it carries a fresh scan report. The controller
	// may push re-association directives in response.
	MsgUpdate
	// MsgAssociate is sent by the CC to direct an agent to an extender.
	MsgAssociate
	// MsgRedirect is sent by a shard-member CC that does not own the
	// joining user's best-rate extender: Addr names the member that does,
	// and the agent re-sends its join there (cross-shard handoff).
	MsgRedirect
	// MsgPing is an agent keepalive. The controller ignores it, but the
	// bytes reset the server-side read deadline, so a healthy idle agent
	// is never dropped as stalled.
	MsgPing
	// MsgStats asks the CC for a snapshot of controller statistics.
	MsgStats
	// MsgStatsReply answers MsgStats.
	MsgStatsReply
	// MsgError reports a protocol or policy failure to the agent.
	MsgError
)

// msgNames names each message type by code, for error messages.
var msgNames = [...]string{
	MsgJoin:       "join",
	MsgLeave:      "leave",
	MsgUpdate:     "update",
	MsgAssociate:  "associate",
	MsgRedirect:   "redirect",
	MsgPing:       "ping",
	MsgStats:      "stats",
	MsgStatsReply: "stats_reply",
	MsgError:      "error",
}

// valid reports whether t is one of the protocol's message types.
func (t MsgType) valid() bool { return t >= MsgJoin && t <= MsgError }

// String names the message type; an unknown code prints as its number.
func (t MsgType) String() string {
	if t.valid() {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// Message is the single wire format; fields are used according to Type.
type Message struct {
	Type MsgType
	// UserID identifies the agent (join, leave, associate).
	UserID int
	// Rates is the scan report: estimated WiFi PHY rate in Mbps to each
	// extender, indexed by extender ID (join).
	Rates []float64
	// RSSI is the scan report's signal strengths in dBm (join).
	RSSI []float64
	// Extender is the association directive target (associate).
	// Extender 0 is a valid target; the codec has no optional fields —
	// every field is always encoded — so it cannot be conflated with an
	// absent one.
	Extender int
	// Reassociation marks a directive that moves an already-associated
	// user (associate); false is a statement (first association), not an
	// absence.
	Reassociation bool
	// Addr is the address of the shard member the agent should re-join
	// (redirect).
	Addr string
	// Stats is the controller snapshot (stats_reply).
	Stats *Stats
	// Error carries a human-readable failure description (error).
	Error string
}

// Stats is a controller snapshot.
type Stats struct {
	Policy         string
	Users          int
	Joins          int
	Leaves         int
	Reassociations int
	// DroppedReassigns counts departures under ReassignOnLeave whose
	// re-solve failed: the leave stood, the rebalance was dropped.
	DroppedReassigns int
	// DroppedPushes counts directives the server discarded because the
	// target connection's bounded outbound queue was full (a stalled
	// agent; see control.ServerConfig.PushQueueDepth).
	DroppedPushes int
	Assignment    map[int]int
}

// AppendFrame appends m's complete frame (length header included) to dst
// and returns the extended slice. It allocates only when dst lacks
// capacity, so a conn reusing its buffer encodes at 0 allocs/op. The
// one encode error is a Type outside the protocol's message set; dst is
// returned unextended then.
func AppendFrame(dst []byte, m *Message) ([]byte, error) {
	if !m.Type.valid() {
		return dst, fmt.Errorf("wire: unencodable message type %q", m.Type)
	}
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type))
	dst = binary.AppendVarint(dst, int64(m.UserID))
	dst = binary.AppendVarint(dst, int64(m.Extender))
	dst = appendBool(dst, m.Reassociation)
	dst = appendFloats(dst, m.Rates)
	dst = appendFloats(dst, m.RSSI)
	dst = appendString(dst, m.Addr)
	dst = appendString(dst, m.Error)
	if m.Stats == nil {
		dst = append(dst, 0)
	} else {
		dst = append(dst, 1)
		dst = appendStats(dst, m.Stats)
	}
	frameLen := len(dst) - start - 4
	if frameLen > MaxFrame {
		return dst[:start], fmt.Errorf("wire: frame length %d exceeds limit %d", frameLen, MaxFrame)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(frameLen))
	return dst, nil
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloats(dst []byte, v []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	for _, f := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendStats(dst []byte, st *Stats) []byte {
	dst = appendString(dst, st.Policy)
	dst = binary.AppendVarint(dst, int64(st.Users))
	dst = binary.AppendVarint(dst, int64(st.Joins))
	dst = binary.AppendVarint(dst, int64(st.Leaves))
	dst = binary.AppendVarint(dst, int64(st.Reassociations))
	dst = binary.AppendVarint(dst, int64(st.DroppedReassigns))
	dst = binary.AppendVarint(dst, int64(st.DroppedPushes))
	dst = binary.AppendUvarint(dst, uint64(len(st.Assignment)))
	for id, ext := range st.Assignment {
		dst = binary.AppendVarint(dst, int64(id))
		dst = binary.AppendVarint(dst, int64(ext))
	}
	return dst
}

// frameReader is a bounds-checked cursor over one frame's payload. The
// first decode error sticks; every later read returns zero values, so
// DecodeFrame checks err exactly once at the end.
type frameReader struct {
	p   []byte
	off int
	err error
}

func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated or corrupt %s at offset %d", what, r.off)
	}
}

func (r *frameReader) varint(what string) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.p[r.off:])
	if n <= 0 {
		r.fail(what)
		return 0
	}
	r.off += n
	return int(v)
}

func (r *frameReader) uvarint(what string) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.p[r.off:])
	if n <= 0 || v > MaxFrame {
		r.fail(what)
		return 0
	}
	r.off += n
	return int(v)
}

func (r *frameReader) bool(what string) bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.p) || r.p[r.off] > 1 {
		r.fail(what)
		return false
	}
	v := r.p[r.off] == 1
	r.off++
	return v
}

// floats decodes a length-prefixed float64 vector into dst's capacity,
// allocating only on growth. A zero-length vector yields dst[:0] —
// which is nil when dst started nil (nil in, nil out on a fresh
// Message).
func (r *frameReader) floats(dst []float64, what string) []float64 {
	n := r.uvarint(what)
	if r.err != nil {
		return dst[:0]
	}
	if n > (len(r.p)-r.off)/8 {
		r.fail(what)
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for i := 0; i < n; i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.p[r.off:]))
		r.off += 8
	}
	return dst
}

// string decodes a length-prefixed string. Zero-length strings are ""
// without allocating; anything longer is one string copy (redirect
// addresses and error texts — never the steady-state path).
func (r *frameReader) string(what string) string {
	n := r.uvarint(what)
	if r.err != nil || n == 0 {
		return ""
	}
	if n > len(r.p)-r.off {
		r.fail(what)
		return ""
	}
	s := string(r.p[r.off : r.off+n])
	r.off += n
	return s
}

// DecodeFrame decodes one frame body (type byte + payload, the length
// header already consumed) into m, reusing m's Rates/RSSI capacity.
// Every Message field is overwritten — a reused m never leaks state
// between frames. Trailing bytes after the last field are an error:
// frames are exact, not extensible-by-garbage.
func DecodeFrame(body []byte, m *Message) error {
	if len(body) < 1 {
		return fmt.Errorf("wire: empty frame")
	}
	t := MsgType(body[0])
	if !t.valid() {
		return fmt.Errorf("wire: unknown message type code %d", body[0])
	}
	r := frameReader{p: body, off: 1}
	m.Type = t
	m.UserID = r.varint("userId")
	m.Extender = r.varint("extender")
	m.Reassociation = r.bool("reassociation")
	m.Rates = r.floats(m.Rates, "rates")
	m.RSSI = r.floats(m.RSSI, "rssi")
	m.Addr = r.string("addr")
	m.Error = r.string("error")
	if r.bool("stats presence") {
		st := &Stats{}
		st.Policy = r.string("stats.policy")
		st.Users = r.varint("stats.users")
		st.Joins = r.varint("stats.joins")
		st.Leaves = r.varint("stats.leaves")
		st.Reassociations = r.varint("stats.reassociations")
		st.DroppedReassigns = r.varint("stats.droppedReassigns")
		st.DroppedPushes = r.varint("stats.droppedPushes")
		n := r.uvarint("stats.assignment")
		if r.err == nil && n > 0 {
			// Each pair is at least 2 bytes; reject counts the remaining
			// payload cannot possibly hold before allocating the map.
			if n > (len(r.p)-r.off)/2 {
				r.fail("stats.assignment")
			} else {
				st.Assignment = make(map[int]int, n)
				for i := 0; i < n; i++ {
					id := r.varint("stats.assignment key")
					ext := r.varint("stats.assignment value")
					st.Assignment[id] = ext
				}
			}
		}
		m.Stats = st
	} else {
		m.Stats = nil
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(body) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(body)-r.off)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r and decodes it into
// m, growing *buf as the frame body scratch (reused across calls: 0
// allocs/op at steady state). Returns any transport error verbatim
// (io.EOF on a clean close before a header).
func ReadFrame(r io.Reader, m *Message, buf *[]byte) error {
	// The header is read through *buf rather than a stack array: a local
	// array passed through the io.Reader interface escapes, costing one
	// allocation per frame — the exact thing this path exists to avoid.
	if cap(*buf) < 4 {
		*buf = make([]byte, 64)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	n := int(binary.LittleEndian.Uint32(hdr))
	if n < 1 || n > MaxFrame {
		return fmt.Errorf("wire: bad frame length %d", n)
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("wire: truncated frame: %w", err)
	}
	return DecodeFrame(body, m)
}
