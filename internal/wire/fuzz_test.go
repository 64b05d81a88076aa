package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzWireRoundTrip fuzzes encode→decode == original over every Message
// shape the protocol can express, pinning the PR 4 wire regressions
// (extender 0, explicit Reassociation) against the binary codec too:
// the fixed field layout encodes Extender and Reassociation always, so
// no fuzz input can produce a frame where extender 0 is conflated with
// "no extender". Float vectors are reconstructed bit-exactly (NaN
// payloads included); comparisons normalize only the nil-vs-empty
// distinction the codec deliberately collapses.
func FuzzWireRoundTrip(f *testing.F) {
	f.Add(byte(1), int64(0), int64(0), false, "", "", []byte{}, []byte{}, false, "", int64(0), int64(0))
	f.Add(byte(4), int64(3), int64(0), false, "", "", []byte{}, []byte{}, false, "", int64(0), int64(0))
	f.Add(byte(4), int64(9), int64(4), true, "", "", []byte{}, []byte{}, false, "", int64(0), int64(0))
	f.Add(byte(5), int64(7), int64(0), false, "127.0.0.1:9", "", []byte{}, []byte{}, false, "", int64(0), int64(0))
	f.Add(byte(1), int64(2), int64(0), false, "", "", []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{255, 0, 1}, false, "", int64(0), int64(0))
	f.Add(byte(8), int64(0), int64(0), false, "", "boom", []byte{}, []byte{}, true, "wolt", int64(12), int64(-3))
	f.Add(byte(9), int64(-4), int64(-1), true, "", "no extender", []byte{}, []byte{}, false, "", int64(0), int64(0))

	f.Fuzz(func(t *testing.T, code byte, userID, extender int64, reassoc bool,
		addr, errStr string, ratesRaw, rssiRaw []byte, withStats bool,
		policy string, statA, statB int64) {
		in := Message{
			Type:          MsgType(code%9 + 1),
			UserID:        int(userID),
			Extender:      int(extender),
			Reassociation: reassoc,
			Rates:         bytesToFloats(ratesRaw),
			RSSI:          bytesToFloats(rssiRaw),
			Addr:          addr,
			Error:         errStr,
		}
		if withStats {
			in.Stats = &Stats{
				Policy: policy,
				Users:  int(statA), Joins: int(statB), Leaves: int(statA ^ statB),
				Reassociations: int(statA + statB), DroppedReassigns: int(statB - statA),
				DroppedPushes: int(statA >> 1),
				Assignment:    map[int]int{int(statA): int(statB), int(statB): 0},
			}
		}

		frame, err := AppendFrame(nil, &in)
		if err != nil {
			t.Fatalf("encode %+v: %v", in, err)
		}
		var out Message
		var scratch []byte
		if err := ReadFrame(bytes.NewReader(frame), &out, &scratch); err != nil {
			t.Fatalf("decode of own encoding failed: %v\nframe % x", err, frame)
		}
		if !equalMessages(in, out) {
			t.Errorf("round trip mangled the message:\n in  %+v\n out %+v", in, out)
		}

		// Re-encoding the decoded message must be byte-identical: the
		// codec has exactly one encoding per (normalized) message.
		frame2, err := AppendFrame(nil, &out)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if in.Stats == nil && !bytes.Equal(frame, frame2) {
			// (Stats frames iterate a map, so their byte order is not
			// canonical; every other shape is.)
			t.Errorf("re-encode not canonical:\n first  % x\n second % x", frame, frame2)
		}
	})
}

// FuzzWireDecodeRobust throws arbitrary bytes at the frame decoder: it
// must reject or accept without panicking, and anything it accepts must
// re-encode into a frame it accepts again (decode ∘ encode is total on
// the codec's image).
func FuzzWireDecodeRobust(f *testing.F) {
	good, _ := AppendFrame(nil, &Message{Type: MsgJoin, UserID: 3, Rates: []float64{1, 2, 3}})
	f.Add(good)
	f.Add([]byte{4, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var m Message
		var scratch []byte
		if err := ReadFrame(bytes.NewReader(raw), &m, &scratch); err != nil {
			return
		}
		frame, err := AppendFrame(nil, &m)
		if err != nil {
			t.Fatalf("decoded message failed to re-encode: %+v: %v", m, err)
		}
		var m2 Message
		if err := ReadFrame(bytes.NewReader(frame), &m2, &scratch); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !equalMessages(m, m2) {
			t.Errorf("decode/encode/decode drifted:\n first  %+v\n second %+v", m, m2)
		}
	})
}

// bytesToFloats builds a float64 vector from fuzz bytes, 8 bytes per
// element (trailing partial group dropped), so the fuzzer explores
// arbitrary bit patterns including NaNs and infinities.
func bytesToFloats(raw []byte) []float64 {
	n := len(raw) / 8
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var bits uint64
		for j := 0; j < 8; j++ {
			bits = bits<<8 | uint64(raw[i*8+j])
		}
		out[i] = math.Float64frombits(bits)
	}
	return out
}

// equalMessages compares two messages with NaN-tolerant float equality
// and the codec's nil-vs-empty normalization.
func equalMessages(a, b Message) bool {
	if a.Type != b.Type || a.UserID != b.UserID || a.Extender != b.Extender ||
		a.Reassociation != b.Reassociation || a.Addr != b.Addr || a.Error != b.Error {
		return false
	}
	if !equalFloats(a.Rates, b.Rates) || !equalFloats(a.RSSI, b.RSSI) {
		return false
	}
	as, bs := a.Stats, b.Stats
	if (as == nil) != (bs == nil) {
		return false
	}
	if as == nil {
		return true
	}
	an, bn := *as, *bs
	if len(an.Assignment) == 0 {
		an.Assignment = nil
	}
	if len(bn.Assignment) == 0 {
		bn.Assignment = nil
	}
	return reflect.DeepEqual(an, bn)
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Bit equality: NaN payloads must survive the wire.
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
