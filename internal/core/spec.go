package core

// This file implements the unified-runner spec for the explicit dating
// handshake: repro.Run(HandshakeConfig{...}) drives the three-step message
// protocol of handshake.go for a fixed number of dating rounds and reports
// the dates it completed, making the handshake runnable through the same
// entrypoint — and the same seed scheme — as every other protocol.

import (
	"fmt"

	"repro/internal/bandwidth"
	"repro/internal/run"
	"repro/internal/simnet"
)

// HandshakeConfig parameterizes a message-level dating-service run for the
// unified runner: Rounds dating rounds of the explicit three-step protocol
// (scatter, answer, payload) on a fresh round-synchronous network, with
// per-node streams derived from the run's root seed.
type HandshakeConfig struct {
	// Profile holds the per-node bandwidths; required.
	Profile bandwidth.Profile
	// Selector defaults to uniform over the profile's nodes.
	Selector Selector
	// Rounds is the number of dating rounds to run (each costing three
	// network rounds); 0 means 10.
	Rounds int
}

// Protocol implements run.Spec.
func (c HandshakeConfig) Protocol() string { return "handshake" }

// Execute implements run.Spec: Trajectory is the cumulative completed-date
// count, Sent the dates completed per dating round, and Messages the total
// network traffic including the address-sized control messages — the
// paper's overhead model made measurable. Detail is the simnet.Stats.
// The handshake's network rounds are inherently serial, so the worker
// budget is accepted and unused.
func (c HandshakeConfig) Execute(o *run.Options) (run.Report, error) {
	n := c.Profile.N()
	if n == 0 {
		return run.Report{}, fmt.Errorf("core: handshake run needs a profile")
	}
	sel, err := SelectorFor(c.Selector, n)
	if err != nil {
		return run.Report{}, err
	}
	rounds := c.Rounds
	if rounds <= 0 {
		rounds = 10
	}
	h, err := NewHandshake(c.Profile, sel, run.SeedFor(o.Seed, run.DomainHandshake))
	if err != nil {
		return run.Report{}, err
	}
	nw, err := simnet.NewNetwork(n)
	if err != nil {
		return run.Report{}, err
	}

	total := 0
	res, err := run.Drive(rounds, nil, func(r int) (int, int, bool, error) {
		dates, err := h.RunRound(nw)
		total += len(dates)
		// A fixed-length run: finishing is completing.
		return len(dates), total, r == rounds, err
	})
	if err != nil {
		return run.Report{}, err
	}
	st := nw.Stats()
	return res.Report(st, &st), nil
}
