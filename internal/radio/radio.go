// Package radio models the WiFi physical layer between users and PLC-WiFi
// extenders: log-distance path loss, received signal strength (RSSI), and
// the mapping from RSSI to the 802.11 PHY bit-rate selected by rate
// adaptation.
//
// The paper (§V-A) uses "a simple model ... where the channel quality is a
// function of the distance between the extender and the user", citing the
// Cisco Aironet 1200 data sheet; this package implements that model as a
// log-distance path-loss channel feeding an MCS threshold table.
package radio

import (
	"fmt"
	"math"
	"sort"
)

// Channel is a log-distance path-loss channel:
//
//	PL(d) = PL(d0) + 10·n·log10(d/d0)
//	RSSI  = TxPower - PL(d)
//
// with d clamped below ReferenceDistance to avoid near-field singularities.
type Channel struct {
	// TxPowerDBm is the extender's transmit power. Typical consumer
	// extenders transmit at about 20 dBm.
	TxPowerDBm float64
	// PathLossExponent n: 2 in free space, 3–4 indoors with obstructions.
	PathLossExponent float64
	// ReferenceLossDB is PL(d0), the path loss at the reference distance.
	// About 40 dB at 1 m for 2.4 GHz.
	ReferenceLossDB float64
	// ReferenceDistanceM is d0 in meters.
	ReferenceDistanceM float64
}

// DefaultChannel returns an indoor-office channel (2.4 GHz, n=3).
func DefaultChannel() Channel {
	return Channel{
		TxPowerDBm:         20,
		PathLossExponent:   3,
		ReferenceLossDB:    40,
		ReferenceDistanceM: 1,
	}
}

// PathLossDB returns the path loss in dB at distance d meters.
func (c Channel) PathLossDB(d float64) float64 {
	if d < c.ReferenceDistanceM {
		d = c.ReferenceDistanceM
	}
	return c.ReferenceLossDB + 10*c.PathLossExponent*math.Log10(d/c.ReferenceDistanceM)
}

// RSSIDBm returns the received signal strength at distance d meters.
func (c Channel) RSSIDBm(d float64) float64 {
	return c.TxPowerDBm - c.PathLossDB(d)
}

// RateStep is one row of a rate table: the minimum RSSI at which a PHY rate
// is selected by rate adaptation.
type RateStep struct {
	MinRSSIDBm float64
	RateMbps   float64
}

// RateTable maps RSSI to the 802.11 PHY rate, mirroring receiver
// sensitivity tables. Steps must be sorted by descending MinRSSIDBm.
type RateTable struct {
	steps []RateStep
}

// NewRateTable builds a rate table from steps; the steps are copied and
// sorted by descending RSSI threshold. It returns an error if steps is
// empty or contains a non-positive rate.
func NewRateTable(steps []RateStep) (*RateTable, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("radio: empty rate table")
	}
	cp := append([]RateStep(nil), steps...)
	for _, s := range cp {
		if s.RateMbps <= 0 {
			return nil, fmt.Errorf("radio: non-positive rate %v in table", s.RateMbps)
		}
	}
	sort.Slice(cp, func(i, k int) bool { return cp[i].MinRSSIDBm > cp[k].MinRSSIDBm })
	return &RateTable{steps: cp}, nil
}

// Default80211g returns the 802.11g sensitivity table used in the Cisco
// Aironet 1200 data sheet the paper cites: 54 Mbps near the AP down to
// 6 Mbps at cell edge, then out of range.
func Default80211g() *RateTable {
	t, err := NewRateTable([]RateStep{
		{MinRSSIDBm: -71, RateMbps: 54},
		{MinRSSIDBm: -73, RateMbps: 48},
		{MinRSSIDBm: -77, RateMbps: 36},
		{MinRSSIDBm: -81, RateMbps: 24},
		{MinRSSIDBm: -84, RateMbps: 18},
		{MinRSSIDBm: -86, RateMbps: 12},
		{MinRSSIDBm: -87, RateMbps: 9},
		{MinRSSIDBm: -88, RateMbps: 6},
	})
	if err != nil {
		// The table above is a compile-time constant; failure is a bug.
		panic(err)
	}
	return t
}

// Rate returns the PHY rate selected at the given RSSI, and whether the
// station is in range at all (false below the weakest threshold).
func (t *RateTable) Rate(rssiDBm float64) (float64, bool) {
	for _, s := range t.steps {
		if rssiDBm >= s.MinRSSIDBm {
			return s.RateMbps, true
		}
	}
	return 0, false
}

// Model combines a channel with a rate table: distance in, PHY rate out.
type Model struct {
	Channel Channel
	Table   *RateTable
	// MinRateFloorMbps, when positive, is the rate assigned to
	// out-of-range users instead of 0. The paper's formulation requires
	// every user to be connectable to every extender (constraint (7)
	// assigns each user somewhere), so the simulator keeps a small
	// positive floor rate (a station at the extreme edge still associates
	// at the lowest MCS with heavy retries).
	MinRateFloorMbps float64
	// ShadowSigmaDB enables lognormal shadowing: each (user, extender)
	// link gets a fixed Gaussian RSSI offset with this standard
	// deviation. Office walls and furniture make links deviate ±5–10 dB
	// from pure distance laws; shadowing is what creates the "users with
	// good and poor WiFi channel qualities" mix the paper's large-scale
	// simulation relies on. Zero disables it (pure distance model).
	ShadowSigmaDB float64
	// ShadowSeed makes the shadowing field reproducible: the offset of a
	// link is a deterministic function of (ShadowSeed, userID,
	// extenderID), stable across topology rebuilds.
	ShadowSeed int64
}

// DefaultModel returns the simulation model used throughout the
// experiments: indoor channel, 802.11g table, 1 Mbps out-of-range floor,
// 7 dB wall shadowing.
func DefaultModel() Model {
	return Model{
		Channel:          DefaultChannel(),
		Table:            Default80211g(),
		MinRateFloorMbps: 1,
		ShadowSigmaDB:    7,
	}
}

// LinkRate returns the PHY rate of the (user, extender) link including
// that link's shadowing offset.
func (m Model) LinkRate(d float64, userID, extenderID int) float64 {
	return m.rateAtRSSI(m.LinkRSSI(d, userID, extenderID))
}

// LinkRSSI returns the shadowed RSSI of the (user, extender) link.
func (m Model) LinkRSSI(d float64, userID, extenderID int) float64 {
	return m.Channel.RSSIDBm(d) + m.shadowDB(userID, extenderID)
}

func (m Model) rateAtRSSI(rssi float64) float64 {
	rate, ok := m.Table.Rate(rssi)
	if !ok {
		return m.MinRateFloorMbps
	}
	return rate
}

// shadowDB returns the link's fixed shadowing offset in dB.
func (m Model) shadowDB(userID, extenderID int) float64 {
	if m.ShadowSigmaDB <= 0 {
		return 0
	}
	return m.ShadowSigmaDB * hashNormal(uint64(m.ShadowSeed), uint64(userID), uint64(extenderID))
}

// hashNormal maps (seed, a, b) to an approximately standard-normal value
// using a splitmix64 hash and the sum-of-uniforms (Irwin–Hall) transform.
// It is deterministic, which keeps a link's shadowing stable no matter
// when or how often the link matrix is rebuilt.
func hashNormal(seed, a, b uint64) float64 {
	x := seed ^ a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F
	var sum float64
	for k := 0; k < 12; k++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		sum += float64(z>>11) / float64(1<<53)
	}
	return sum - 6 // Irwin–Hall(12) has mean 6, variance 1
}
