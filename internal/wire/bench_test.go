package wire

import (
	"bytes"
	"testing"
)

// benchScan is the steady-state hot message: a 64-extender scan report
// (the city TCP benchmark's deployment width).
func benchScan() Message {
	m := Message{Type: MsgJoin, UserID: 123456, Rates: make([]float64, 64), RSSI: make([]float64, 64)}
	for i := range m.Rates {
		m.Rates[i] = 866.0 / float64(1+i)
		m.RSSI[i] = -55 - float64(i)
	}
	return m
}

// BenchmarkWireEncodeDecode prices one steady-state exchange — a scan
// report encoded+decoded plus a directive encoded+decoded — through
// reused buffers, the unit of work the agent↔server hot path performs
// per churn event. The round trip must not allocate: the benchmark
// fails before its timed loop if testing.AllocsPerRun sees an
// allocation, so every runner of it enforces the 0 allocs/op gate.
func BenchmarkWireEncodeDecode(b *testing.B) {
	join := benchScan()
	dir := Message{Type: MsgAssociate, UserID: 123456, Extender: 17, Reassociation: true}
	var buf, scratch []byte
	var m Message
	rd := bytes.NewReader(nil)
	roundTrip := func() {
		var err error
		buf = buf[:0]
		if buf, err = AppendFrame(buf, &join); err != nil {
			b.Fatal(err)
		}
		if buf, err = AppendFrame(buf, &dir); err != nil {
			b.Fatal(err)
		}
		rd.Reset(buf)
		if err := ReadFrame(rd, &m, &scratch); err != nil {
			b.Fatal(err)
		}
		if err := ReadFrame(rd, &m, &scratch); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		b.Fatalf("wire round trip allocates %v times, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}
