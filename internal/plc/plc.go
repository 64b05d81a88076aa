// Package plc models the Power Line Communication backhaul that connects
// PLC-WiFi extenders to the central unit / master router.
//
// Two views are provided:
//
//   - A physical line model (LineModel) mapping powerline wire length,
//     branch taps and noise to a HomePlug-AV2-style PHY rate, from which an
//     isolation capacity (the paper's c_j) follows. This is used to
//     synthesize realistic capacity spreads like the 60–160 Mbps range the
//     paper measured across university outlets (Fig 2b).
//
//   - An offline capacity estimator (Estimator) mirroring §V-A of the
//     paper: saturate each PLC link in isolation (iperf3-style) and treat
//     the sustained throughput as the link's capacity.
package plc

import (
	"fmt"
	"math"
	"math/rand"
)

// Link is one PLC backhaul link between the central unit and an extender's
// outlet.
type Link struct {
	ExtenderID int
	// PHYRateMbps is the raw modulation rate negotiated on the power line.
	PHYRateMbps float64
	// CapacityMbps is the isolation throughput of the link (the paper's
	// c_j): what the link sustains when no other extender is active. It is
	// lower than the PHY rate due to MAC framing and acknowledgement
	// overhead.
	CapacityMbps float64
}

// MACEfficiency is the fraction of PLC PHY rate visible as goodput. The
// paper's TL-WPA8630 units advertise 1200 Mbps PHY yet deliver at most
// ~160 Mbps over a single real link; line attenuation accounts for most of
// the gap and MAC overhead for the rest.
const MACEfficiency = 0.55

// LineModel converts the electrical path between the central unit and an
// outlet into a PHY rate. Powerline attenuation grows with cable length
// and with the number of branch taps (each outlet/junction on the path
// reflects signal).
type LineModel struct {
	// BaseSNRdB is the SNR at (virtually) zero wire length.
	BaseSNRdB float64
	// AttenuationDBPerM is the per-meter cable attenuation. Typical
	// in-building powerline attenuation is 0.4–1 dB/m across the HomePlug
	// band.
	AttenuationDBPerM float64
	// BranchLossDB is the loss per branch tap on the path.
	BranchLossDB float64
	// NoiseSigmaDB is the standard deviation of the lognormal noise term
	// modeling appliance interference.
	NoiseSigmaDB float64
	// MaxPHYRateMbps caps the modulation rate (1200 for HomePlug AV2
	// class devices like the paper's testbed units).
	MaxPHYRateMbps float64
	// BandwidthMHz is the usable HomePlug AV2 spectrum.
	BandwidthMHz float64
}

// DefaultLineModel returns a model calibrated so that typical in-building
// wire runs (10–60 m, 1–6 branch taps) produce isolation capacities in the
// 60–160 Mbps range reported in the paper's Fig 2b.
func DefaultLineModel() LineModel {
	return LineModel{
		BaseSNRdB:         36,
		AttenuationDBPerM: 0.25,
		BranchLossDB:      1.5,
		NoiseSigmaDB:      1.5,
		MaxPHYRateMbps:    1200,
		BandwidthMHz:      28,
	}
}

// PHYRate returns the PHY rate over a path of wireLenM meters with the
// given number of branch taps, using a Shannon-style rate with the model's
// bandwidth. rng supplies the noise term; pass nil for the noiseless rate.
func (m LineModel) PHYRate(wireLenM float64, branches int, rng *rand.Rand) float64 {
	snr := m.BaseSNRdB - m.AttenuationDBPerM*wireLenM - m.BranchLossDB*float64(branches)
	if rng != nil {
		snr += rng.NormFloat64() * m.NoiseSigmaDB
	}
	if snr < 0 {
		snr = 0
	}
	linear := math.Pow(10, snr/10)
	rate := m.BandwidthMHz * math.Log2(1+linear) // Mbps, 1 bit/s/Hz units
	if rate > m.MaxPHYRateMbps {
		rate = m.MaxPHYRateMbps
	}
	return rate
}

// Capacity returns the isolation goodput for a PHY rate.
func Capacity(phyRateMbps float64) float64 {
	return phyRateMbps * MACEfficiency
}

// OutletPath describes the electrical path from the central unit to one
// outlet.
type OutletPath struct {
	ExtenderID int
	WireLenM   float64
	Branches   int
}

// BuildLinks evaluates the line model over a set of outlet paths.
func (m LineModel) BuildLinks(paths []OutletPath, rng *rand.Rand) []Link {
	links := make([]Link, len(paths))
	for i, p := range paths {
		phy := m.PHYRate(p.WireLenM, p.Branches, rng)
		links[i] = Link{
			ExtenderID:   p.ExtenderID,
			PHYRateMbps:  phy,
			CapacityMbps: Capacity(phy),
		}
	}
	return links
}

// Estimator performs the paper's offline capacity estimation (§V-A): each
// PLC link is saturated in isolation and the sustained throughput is
// recorded as its capacity. Probe is the function that saturates a link
// and reports throughput; in simulation it samples the link capacity with
// measurement noise, on the emulated testbed it runs a real iperf-style
// transfer.
type Estimator struct {
	// Probe measures the isolated throughput of one link once.
	Probe func(link Link) float64
	// Samples is the number of probe runs averaged per link (default 3).
	Samples int
}

// Estimate runs the estimator over all links and returns capacity
// estimates indexed like links.
func (e Estimator) Estimate(links []Link) ([]float64, error) {
	if e.Probe == nil {
		return nil, fmt.Errorf("plc: estimator has no probe")
	}
	samples := e.Samples
	if samples <= 0 {
		samples = 3
	}
	out := make([]float64, len(links))
	for i, link := range links {
		var total float64
		for s := 0; s < samples; s++ {
			total += e.Probe(link)
		}
		out[i] = total / float64(samples)
	}
	return out, nil
}

// NoisyProbe returns a Probe that reports the true capacity perturbed by
// multiplicative Gaussian measurement noise with the given relative sigma,
// clamped to stay positive. It models iperf run-to-run variance.
func NoisyProbe(relSigma float64, rng *rand.Rand) func(Link) float64 {
	return func(link Link) float64 {
		v := link.CapacityMbps * (1 + rng.NormFloat64()*relSigma)
		if v < 0.01*link.CapacityMbps {
			v = 0.01 * link.CapacityMbps
		}
		return v
	}
}
