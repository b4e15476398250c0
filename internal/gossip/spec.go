package gossip

// This file implements the unified-runner specs (run.Spec) for single-rumor
// spreading, multi-rumor spreading, the fully message-level live run and
// the bare dating handshake. The configs carry only the protocol; the
// orthogonal axes — seed, worker budget, network model — come exclusively
// from the run options, which is what keeps the axes orthogonal to the
// protocol choice.

import (
	"repro/internal/run"
)

// Protocol implements run.Spec.
func (c Config) Protocol() string { return "rumor" }

// Execute implements run.Spec: the run stream derives from the root seed
// under DomainRumor and every dating round draws its workers from the
// shared budget. Trajectory is the informed-node history; Detail the full
// Result.
func (c Config) Execute(o *run.Options) (run.Report, error) {
	res, err := spread(c, run.StreamFor(o.Seed, run.DomainRumor), o.Budget, o.Obs.Track("rumor", 1))
	if err != nil {
		return run.Report{}, err
	}
	rep := res.Report(res, nil)
	rep.MaxInLoad, rep.MaxOutLoad = res.MaxInLoad, res.MaxOutLoad
	return rep, nil
}

// Protocol implements run.Spec.
func (c MultiRumorConfig) Protocol() string { return "multirumor" }

// Execute implements run.Spec: the run stream derives from the root seed
// under DomainMulti, dating rounds draw workers from the shared budget and
// an observer gets a "multirumor" track. Trajectory is the cumulative
// (node, rumor) knowledge count; Detail the full MultiRumorResult.
func (c MultiRumorConfig) Execute(o *run.Options) (run.Report, error) {
	res, err := runMultiRumor(c, run.StreamFor(o.Seed, run.DomainMulti), o.Budget, o.Obs.Track("multirumor", 1))
	if err != nil {
		return run.Report{}, err
	}
	return res.Report(res, nil), nil
}

// Protocol implements run.Spec.
func (c LiveConfig) Protocol() string { return "live" }

// Execute implements run.Spec under liveOptionsFor(o, DomainLive): every
// worker count yields the identical report. Trajectory is the informed-peer
// history; Detail the full LiveResult.
func (c LiveConfig) Execute(o *run.Options) (run.Report, error) {
	return execute(runLive(c, liveOptionsFor(o, run.DomainLive), roundClock))
}

// Protocol implements run.Spec.
func (c HandshakeConfig) Protocol() string { return "handshake" }

// Execute implements run.Spec under liveOptionsFor(o, DomainHandshake):
// every worker count yields the identical report. Trajectory is the running
// total of completed dates, Sent the dates of each dating round, Messages
// all traffic — the address-sized control messages included — and
// MaxInLoad the most payloads a peer received in one dating round. Detail
// is the full LiveResult.
func (c HandshakeConfig) Execute(o *run.Options) (run.Report, error) {
	return execute(runHandshake(c, liveOptionsFor(o, run.DomainHandshake), roundClock))
}
