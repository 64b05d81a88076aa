// Package qos extends WOLT with the IEEE 1901 TDMA QoS mode the paper
// describes in §II: the PLC central coordinator can reserve guaranteed
// time slots, so priority users (e.g. video, the paper's motivating
// bandwidth-intensive application) can be given hard throughput
// guarantees while best-effort users share the remaining CSMA period
// under the usual WOLT association.
//
// Planning proceeds in two stages:
//
//  1. Admission: priority demands are placed greedily (largest first)
//     on the extender that spends the least reserved medium time per
//     delivered bit, subject to the WiFi link sustaining the demand and
//     a global TDMA budget (the standard allocates a bounded contention-
//     free period per beacon cycle). Infeasible demand sets are rejected.
//
//  2. Best-effort association: the remaining users are associated by
//     the ordinary two-phase WOLT algorithm against the capacities left
//     after reservations (the CSMA period shrinks to 1−R of the beacon
//     cycle).
package qos

import (
	"errors"
	"fmt"
	"sort"

	"github.com/plcwifi/wolt/internal/core"
	"github.com/plcwifi/wolt/internal/model"
)

// tdmaBudget is the maximum fraction of medium time the coordinator may
// reserve, leaving at least 40% CSMA per beacon cycle.
const tdmaBudget = 0.6

// ErrInfeasible is returned when the priority demands cannot all be
// guaranteed within the TDMA budget.
var ErrInfeasible = errors.New("qos: priority demands exceed the TDMA budget")

// Demand is one priority user's guaranteed-rate requirement.
type Demand struct {
	// User is the user's row index in the network.
	User int
	// Mbps is the guaranteed throughput to reserve.
	Mbps float64
}

// Config parameterizes planning.
type Config struct {
	// Net is the complete network (priority and best-effort users).
	Net *model.Network
	// Priority lists the guaranteed-rate users; all other users are
	// best-effort.
	Priority []Demand
	// Eval selects the evaluation model for the best-effort share.
	Eval model.Options
}

// Plan is a complete QoS-aware association.
type Plan struct {
	// Assign covers every user: priority users sit on their reserved
	// extender, best-effort users on their WOLT extender.
	Assign model.Assignment
	// ReservedTime[j] is the medium-time fraction reserved for extender
	// j's priority traffic.
	ReservedTime []float64
	// TotalReserved is Σ ReservedTime (≤ tdmaBudget).
	TotalReserved float64
	// Guaranteed[user] is the admitted guaranteed rate.
	Guaranteed map[int]float64
	// BestEffort is the evaluated best-effort share (computed against
	// the capacities scaled by the remaining CSMA fraction).
	BestEffort *model.Result
}

// Build computes a QoS plan.
func Build(cfg Config) (*Plan, error) {
	n := cfg.Net
	if n == nil {
		return nil, fmt.Errorf("qos: nil network")
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	isPriority := make(map[int]float64, len(cfg.Priority))
	for _, d := range cfg.Priority {
		if d.User < 0 || d.User >= n.NumUsers() {
			return nil, fmt.Errorf("qos: priority user %d out of range", d.User)
		}
		if d.Mbps <= 0 {
			return nil, fmt.Errorf("qos: non-positive demand %v for user %d", d.Mbps, d.User)
		}
		if _, dup := isPriority[d.User]; dup {
			return nil, fmt.Errorf("qos: duplicate demand for user %d", d.User)
		}
		isPriority[d.User] = d.Mbps
	}

	plan := &Plan{
		Assign:       make(model.Assignment, n.NumUsers()),
		ReservedTime: make([]float64, n.NumExtenders()),
		Guaranteed:   make(map[int]float64, len(cfg.Priority)),
	}
	for i := range plan.Assign {
		plan.Assign[i] = model.Unassigned
	}

	// Stage 1 — admission, largest demand first (hardest to place).
	demands := append([]Demand(nil), cfg.Priority...)
	sort.Slice(demands, func(a, b int) bool {
		if demands[a].Mbps != demands[b].Mbps {
			return demands[a].Mbps > demands[b].Mbps
		}
		return demands[a].User < demands[b].User
	})
	for _, d := range demands {
		bestJ, bestFrac := -1, 0.0
		for j := 0; j < n.NumExtenders(); j++ {
			if n.WiFiRates[d.User][j] < d.Mbps {
				continue // the WiFi hop cannot sustain the guarantee
			}
			frac := d.Mbps / n.PLCCaps[j]
			if plan.TotalReserved+frac > tdmaBudget+1e-12 {
				continue
			}
			if bestJ < 0 || frac < bestFrac {
				bestJ, bestFrac = j, frac
			}
		}
		if bestJ < 0 {
			return nil, fmt.Errorf("%w: user %d needs %v Mbps (reserved %.2f of %.2f)",
				ErrInfeasible, d.User, d.Mbps, plan.TotalReserved, tdmaBudget)
		}
		plan.Assign[d.User] = bestJ
		plan.ReservedTime[bestJ] += bestFrac
		plan.TotalReserved += bestFrac
		plan.Guaranteed[d.User] = d.Mbps
	}

	// Stage 2 — best-effort WOLT over the shrunken CSMA period.
	var bestEffort []int
	for i := 0; i < n.NumUsers(); i++ {
		if _, ok := isPriority[i]; !ok {
			bestEffort = append(bestEffort, i)
		}
	}
	if len(bestEffort) == 0 {
		return plan, nil
	}
	csma := 1 - plan.TotalReserved
	sub := &model.Network{
		WiFiRates: make([][]float64, len(bestEffort)),
		PLCCaps:   make([]float64, n.NumExtenders()),
	}
	for j, c := range n.PLCCaps {
		sub.PLCCaps[j] = c * csma
		if sub.PLCCaps[j] <= 0 {
			// Fully reserved medium: a hair of capacity keeps the model
			// valid; best-effort users then get (almost) nothing.
			sub.PLCCaps[j] = 1e-9
		}
	}
	for k, i := range bestEffort {
		sub.WiFiRates[k] = n.WiFiRates[i]
	}
	res, err := core.Assign(sub, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("qos: best-effort association: %w", err)
	}
	for k, i := range bestEffort {
		plan.Assign[i] = res.Assign[k]
	}
	eval, err := model.Evaluate(sub, res.Assign, cfg.Eval)
	if err != nil {
		return nil, fmt.Errorf("qos: best-effort evaluation: %w", err)
	}
	plan.BestEffort = eval
	return plan, nil
}

// AggregateMbps returns the plan's total delivered throughput: the sum
// of admitted guarantees plus the best-effort aggregate.
func (p *Plan) AggregateMbps() float64 {
	total := 0.0
	for _, g := range p.Guaranteed {
		total += g
	}
	if p.BestEffort != nil {
		total += p.BestEffort.Aggregate
	}
	return total
}
