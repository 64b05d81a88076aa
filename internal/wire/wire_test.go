package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// normalize maps the encodings the binary codec deliberately collapses
// onto one representative: zero-length slices decode as their input
// scratch (nil on a fresh Message) and an empty assignment map decodes
// as nil.
func normalize(m Message) Message {
	if len(m.Rates) == 0 {
		m.Rates = nil
	}
	if len(m.RSSI) == 0 {
		m.RSSI = nil
	}
	if m.Stats != nil {
		st := *m.Stats
		if len(st.Assignment) == 0 {
			st.Assignment = nil
		}
		m.Stats = &st
	}
	return m
}

// roundTrip encodes m into a fresh buffer and decodes it into a fresh
// Message via the same ReadFrame path the conn layer uses.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	frame, err := AppendFrame(nil, &m)
	if err != nil {
		t.Fatalf("encode %+v: %v", m, err)
	}
	var out Message
	var scratch []byte
	if err := ReadFrame(bytes.NewReader(frame), &out, &scratch); err != nil {
		t.Fatalf("decode %+v: %v", m, err)
	}
	return out
}

func TestRoundTripAllShapes(t *testing.T) {
	msgs := []Message{
		{Type: MsgJoin, UserID: 7, Rates: []float64{120.5, 0, 33.25}, RSSI: []float64{-60, -71, -80}},
		{Type: MsgJoin, UserID: 0, Rates: []float64{5}},
		{Type: MsgLeave, UserID: 1 << 40},
		{Type: MsgUpdate, UserID: 3, Rates: []float64{1.5, 2.5}},
		// Extender 0 and explicit Reassociation false: the PR 4 wire
		// regressions, pinned against the binary codec too.
		{Type: MsgAssociate, UserID: 3, Extender: 0, Reassociation: false},
		{Type: MsgAssociate, UserID: 9, Extender: 4, Reassociation: true},
		{Type: MsgRedirect, UserID: 9, Addr: "127.0.0.1:4242"},
		{Type: MsgPing},
		{Type: MsgStats},
		{Type: MsgStatsReply, Stats: &Stats{
			Policy: "wolt", Users: 3, Joins: 5, Leaves: 2, Reassociations: 1,
			DroppedReassigns: 4, DroppedPushes: 6,
			Assignment: map[int]int{0: 1, 7: 0, 9: 3},
		}},
		{Type: MsgError, Error: "user 3 reaches no extender"},
		// Negative IDs are protocol nonsense but must still round-trip:
		// the codec is a faithful transport, not a validator.
		{Type: MsgAssociate, UserID: -1, Extender: -5},
	}
	for _, in := range msgs {
		out := roundTrip(t, in)
		if !reflect.DeepEqual(normalize(out), normalize(in)) {
			t.Errorf("round trip mangled the message:\n in  %+v\n out %+v", in, out)
		}
	}
}

// TestDecodeReusesScratch pins the conn layer's reuse contract: decoding
// a second message into the same Message must overwrite every field
// (no state leaking from the previous frame) while reusing the rate
// vector capacity.
func TestDecodeReusesScratch(t *testing.T) {
	first := Message{Type: MsgJoin, UserID: 1, Rates: []float64{10, 20, 30},
		RSSI: []float64{-1, -2, -3}}
	second := Message{Type: MsgAssociate, UserID: 2, Extender: 1}
	f1, err := AppendFrame(nil, &first)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := AppendFrame(nil, &second)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	var scratch []byte
	r := bytes.NewReader(append(f1, f2...))
	if err := ReadFrame(r, &m, &scratch); err != nil {
		t.Fatal(err)
	}
	ratesCap := cap(m.Rates)
	if err := ReadFrame(r, &m, &scratch); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(m), normalize(second)) {
		t.Errorf("second decode carried first-frame state: %+v", m)
	}
	if cap(m.Rates) != ratesCap {
		t.Errorf("rates capacity not reused: had %d, now %d", ratesCap, cap(m.Rates))
	}
}

// TestWireSteadyStateAllocs pins the codec's zero-allocation contract
// on the steady-state exchange: a scan report encoded and decoded into
// reused buffers costs 0 allocs/op in both directions.
func TestWireSteadyStateAllocs(t *testing.T) {
	join := Message{Type: MsgJoin, UserID: 42, Rates: make([]float64, 64), RSSI: make([]float64, 64)}
	for i := range join.Rates {
		join.Rates[i] = float64(i) * 13.25
		join.RSSI[i] = -60 - float64(i)
	}
	dir := Message{Type: MsgAssociate, UserID: 42, Extender: 17, Reassociation: true}

	// Warm the buffers outside the measured region.
	buf, err := AppendFrame(nil, &join)
	if err != nil {
		t.Fatal(err)
	}
	var m Message
	var scratch []byte
	rd := bytes.NewReader(buf)
	if err := ReadFrame(rd, &m, &scratch); err != nil {
		t.Fatal(err)
	}

	for name, fn := range map[string]func(){
		"encode scan": func() {
			buf = buf[:0]
			if buf, err = AppendFrame(buf, &join); err != nil {
				t.Fatal(err)
			}
		},
		"encode directive": func() {
			buf = buf[:0]
			if buf, err = AppendFrame(buf, &dir); err != nil {
				t.Fatal(err)
			}
		},
		"decode scan": func() {
			buf = buf[:0]
			buf, _ = AppendFrame(buf, &join)
			rd.Reset(buf)
			if err := ReadFrame(rd, &m, &scratch); err != nil {
				t.Fatal(err)
			}
		},
		"decode directive": func() {
			buf = buf[:0]
			buf, _ = AppendFrame(buf, &dir)
			rd.Reset(buf)
			if err := ReadFrame(rd, &m, &scratch); err != nil {
				t.Fatal(err)
			}
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestDecodeRejectsCorruptFrames(t *testing.T) {
	good, err := AppendFrame(nil, &Message{Type: MsgJoin, UserID: 1, Rates: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty body":       {1, 0, 0, 0},
		"zero length":      {0, 0, 0, 0},
		"unknown type":     {1, 0, 0, 0, 200},
		"truncated body":   good[:len(good)-3],
		"oversized length": binary.LittleEndian.AppendUint32(nil, MaxFrame+1),
	}
	// Trailing garbage after a complete message: grow the length header
	// to claim the extra byte.
	trailing := append(append([]byte(nil), good...), 0xFF)
	binary.LittleEndian.PutUint32(trailing, uint32(len(trailing)-4))
	cases["trailing bytes"] = trailing
	// An otherwise valid frame whose type byte is outside 1–9.
	for _, code := range []byte{0, 10, 255} {
		bad := append([]byte(nil), good...)
		bad[4] = code
		cases[fmt.Sprintf("type code %d", code)] = bad
	}
	// A rates count larger than the remaining payload could hold must be
	// rejected before any allocation.
	hostile := []byte{4, 200, 255, 255, 255, 255, 255, 255, 255, 255}
	body := append([]byte{1, 0, 0}, hostile...)
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	cases["hostile rates count"] = append(frame, body...)

	for name, raw := range cases {
		var m Message
		var scratch []byte
		err := ReadFrame(bytes.NewReader(raw), &m, &scratch)
		if err == nil {
			t.Errorf("%s: decode accepted corrupt frame %v", name, raw)
		} else if err == io.EOF && name != "header EOF" {
			// Truncations inside a frame must not look like clean closes.
			t.Errorf("%s: truncation surfaced as io.EOF", name)
		}
	}

	if err := ReadFrame(bytes.NewReader(nil), &Message{}, &[]byte{}); err != io.EOF {
		t.Errorf("clean close before header: got %v, want io.EOF", err)
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	buf := []byte{1, 2, 3}
	for _, typ := range []MsgType{0, MsgError + 1, 255} {
		out, err := AppendFrame(buf, &Message{Type: typ})
		if err == nil || !strings.Contains(err.Error(), "unencodable") {
			t.Fatalf("encode of type code %d: err=%v", byte(typ), err)
		}
		if len(out) != len(buf) {
			t.Errorf("failed encode of type code %d extended the buffer: %d -> %d bytes", byte(typ), len(buf), len(out))
		}
	}
}
