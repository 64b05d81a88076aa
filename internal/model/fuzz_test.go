package model

import (
	"math"
	"testing"
)

// FuzzWaterFillTime checks the water-filling invariants on arbitrary
// demand vectors: no flow gets more than it asked for, total allocation
// never exceeds one time unit, and satisfied flows are exact.
func FuzzWaterFillTime(f *testing.F) {
	f.Add(0.1, 0.2, 0.3, 0.4)
	f.Add(1.0, 1.0, 1.0, 1.0)
	f.Add(0.0, 0.5, 2.0, 0.25)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		need := []float64{a, b, c, d}
		for i, v := range need {
			v = math.Abs(v)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
			need[i] = math.Mod(v, 4)
		}
		shares := waterFillTime(need)
		var total float64
		for i, s := range shares {
			if s < -1e-12 {
				t.Fatalf("negative share %v", s)
			}
			if s > need[i]+1e-12 {
				t.Fatalf("share %v exceeds demand %v", s, need[i])
			}
			total += s
		}
		if total > 1+1e-9 {
			t.Fatalf("total allocation %v exceeds the medium", total)
		}
		// If the total demand fits, everyone is satisfied exactly.
		var sum float64
		for _, v := range need {
			sum += v
		}
		if sum <= 1 {
			for i := range need {
				if math.Abs(shares[i]-need[i]) > 1e-9 {
					t.Fatalf("underloaded medium but flow %d got %v of %v", i, shares[i], need[i])
				}
			}
		}
	})
}

// FuzzEvaluate checks that evaluation never produces negative or
// non-finite throughputs on arbitrary small instances.
func FuzzEvaluate(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(4))
	f.Add(int64(42), uint8(3), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, extRaw, userRaw uint8) {
		numExt := 1 + int(extRaw%5)
		numUsers := 1 + int(userRaw%10)
		rates, caps, assign := randomInstance(seed, numExt, numUsers)
		n := &Network{WiFiRates: rates, PLCCaps: caps}
		for _, opts := range []Options{
			{},
			{Redistribute: true},
		} {
			res, err := Evaluate(n, assign, opts)
			if err != nil {
				t.Fatalf("opts %+v: %v", opts, err)
			}
			if math.IsNaN(res.Aggregate) || math.IsInf(res.Aggregate, 0) || res.Aggregate < 0 {
				t.Fatalf("opts %+v: bad aggregate %v", opts, res.Aggregate)
			}
			for i, tp := range res.PerUser {
				if math.IsNaN(tp) || tp < 0 {
					t.Fatalf("opts %+v: user %d throughput %v", opts, i, tp)
				}
			}
		}
	})
}
