package wolt

import (
	"time"

	"github.com/plcwifi/wolt/internal/control"
	"github.com/plcwifi/wolt/internal/emu"
	"github.com/plcwifi/wolt/internal/qos"
)

// Control-plane types (the distributed WOLT system: a central controller
// and per-user agents speaking the binary wire protocol over TCP).
type (
	// Controller is the WOLT Central Controller.
	Controller = control.Server
	// ControllerConfig configures a controller: an embedded EngineConfig
	// plus the transport knobs (timeouts, push queue depth, logger).
	ControllerConfig = control.ServerConfig
	// EngineConfig is the policy half of ControllerConfig: capacities,
	// policy, evaluation model, seed and the warm-path knobs.
	EngineConfig = control.EngineConfig
	// Agent is a user-side client of the controller.
	Agent = control.Agent
	// ControllerStats is a controller snapshot.
	ControllerStats = control.Stats
)

// Controller policies (ControllerConfig.Policy; any strategy-registry
// name is accepted).
const (
	// ControllerWOLT runs the two-phase algorithm and re-associates
	// existing users when beneficial.
	ControllerWOLT = control.PolicyWOLT
	// ControllerGreedy places each arrival greedily and never moves
	// anyone.
	ControllerGreedy = control.PolicyGreedy
	// ControllerRSSI assigns by strongest reported signal.
	ControllerRSSI = control.PolicyRSSI
)

// NewController starts a central controller listening on addr.
func NewController(addr string, cfg ControllerConfig) (*Controller, error) {
	return control.NewServer(addr, cfg)
}

// DialAgent connects a user agent to the controller at addr.
func DialAgent(addr string, userID int) (*Agent, error) {
	return control.Dial(addr, userID)
}

// Emulated-testbed types (real shaped TCP flows over loopback).
type (
	// TestbedConfig describes one emulated-testbed run.
	TestbedConfig = emu.Config
	// TestbedResult is a measured run.
	TestbedResult = emu.Result
	// FlowResult is one user's measured throughput.
	FlowResult = emu.FlowResult
)

// RunTestbed realizes an association as real shaped TCP flows and
// measures per-user and aggregate goodput.
func RunTestbed(cfg TestbedConfig) (*TestbedResult, error) {
	return emu.Run(cfg)
}

// MeasureCapacity performs the offline iperf-style PLC capacity
// estimation on the emulated testbed.
func MeasureCapacity(capacityMbps float64, duration time.Duration) (float64, error) {
	return emu.MeasureCapacity(capacityMbps, duration)
}

// QoS types (the IEEE 1901 TDMA guaranteed-slot extension).
type (
	// QoSDemand is one priority user's guaranteed-rate requirement.
	QoSDemand = qos.Demand
	// QoSConfig parameterizes QoS-aware planning.
	QoSConfig = qos.Config
	// QoSPlan is a complete QoS-aware association with reservations.
	QoSPlan = qos.Plan
)

// ErrQoSInfeasible is returned when priority demands cannot be
// guaranteed within the TDMA budget.
var ErrQoSInfeasible = qos.ErrInfeasible

// BuildQoSPlan admits priority users onto TDMA reservations (largest
// demand first), then associates best-effort users with WOLT over the
// remaining CSMA period.
func BuildQoSPlan(cfg QoSConfig) (*QoSPlan, error) {
	return qos.Build(cfg)
}
