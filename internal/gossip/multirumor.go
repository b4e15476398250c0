package gossip

import (
	"fmt"
	"math"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
)

// The paper's model explicitly "allows for extensions such as rumors
// appearing in the network in course of time" (Section 1). MultiRumor
// implements that extension over the dating service: several rumors are
// injected at different rounds on different sources, every arranged date
// carries exactly one rumor (unit-size messages!), and the sender picks
// which of its known rumors to forward — uniformly at random, or the one it
// learned most recently, per Forwarding.

// Forwarding selects the sender-side forwarding policy. (A strict
// newest-first policy is deliberately absent: once every node prefers the
// freshest rumor, older rumors can starve forever — round-robin gives
// recency a boost while remaining live.)
type Forwarding int

const (
	// ForwardRandom sends a uniformly random known rumor.
	ForwardRandom Forwarding = iota
	// ForwardRoundRobin cycles through the sender's known rumors in
	// learning order, guaranteeing every rumor it knows is forwarded
	// regularly regardless of how many newer ones arrive.
	ForwardRoundRobin
)

// Injection introduces one rumor into the network.
type Injection struct {
	Round  int // 1-based round at which the rumor appears
	Source int
}

// MultiRumorConfig parameterizes a multi-rumor run.
type MultiRumorConfig struct {
	Profile    bandwidth.Profile
	Selector   core.Selector // nil = uniform
	N          int           // required when Profile is unset
	Injections []Injection
	Forwarding Forwarding
	MaxRounds  int
}

// MultiRumorResult reports a multi-rumor run: History is the total of
// (node, rumor) pairs known after each round, SentHistory the dates
// arranged per round (each carries one rumor).
type MultiRumorResult struct {
	run.Stepped
	PerRumorDone []int // round at which each rumor reached everyone (0 = never)
}

// runMultiRumor is the body of MultiRumorConfig.Execute: it spreads all
// injected rumors until every node knows every rumor or MaxRounds elapses.
// Every dating round runs on the seeded engine with one seed drawn off s; a
// non-nil b lets each round soak up spare tokens, and as in spread the
// worker count is a pure speed knob.
func runMultiRumor(cfg MultiRumorConfig, s *rng.Stream, b *par.Budget) (MultiRumorResult, error) {
	n := cfg.N
	profile := cfg.Profile
	if profile.N() > 0 {
		n = profile.N()
	} else if n > 0 {
		profile = bandwidth.Homogeneous(n, 1)
	} else {
		return MultiRumorResult{}, fmt.Errorf("gossip: multi-rumor config needs N or a Profile")
	}
	if len(cfg.Injections) == 0 {
		return MultiRumorResult{}, fmt.Errorf("gossip: no rumors to inject")
	}
	if len(cfg.Injections) > math.MaxInt16 {
		// Rumor ids are stored as int16.
		return MultiRumorResult{}, fmt.Errorf("gossip: %d injections exceed the limit of %d rumors", len(cfg.Injections), math.MaxInt16)
	}
	for i, inj := range cfg.Injections {
		if inj.Source < 0 || inj.Source >= n {
			return MultiRumorResult{}, fmt.Errorf("gossip: injection %d source %d out of range", i, inj.Source)
		}
		if inj.Round < 1 {
			return MultiRumorResult{}, fmt.Errorf("gossip: injection %d round %d must be >= 1", i, inj.Round)
		}
	}
	sel, err := core.SelectorFor(cfg.Selector, n)
	if err != nil {
		return MultiRumorResult{}, err
	}
	svc, err := core.NewService(profile, sel)
	if err != nil {
		return MultiRumorResult{}, err
	}
	nRumors := len(cfg.Injections)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64*nRumors + defaultRoundCap(n)
	}

	// knows[i] is a slice of rumor ids node i knows, in learning order
	// (most recent last); known[i][r] indexes it for O(1) lookups; cursor[i]
	// drives the round-robin policy.
	knows := make([][]int16, n)
	cursor := make([]int, n)
	known := make([][]bool, n)
	for i := range known {
		known[i] = make([]bool, nRumors)
	}
	learn := func(node, rumor int) {
		if !known[node][rumor] {
			known[node][rumor] = true
			knows[node] = append(knows[node], int16(rumor))
		}
	}

	counts := make([]int, nRumors) // nodes knowing each rumor
	countKnown := 0                // total (node, rumor) pairs

	res := MultiRumorResult{PerRumorDone: make([]int, nRumors)}
	res.Stepped, err = run.Drive(maxRounds, nil, func(round int) (int, int, bool, error) {
		for r, inj := range cfg.Injections {
			if inj.Round == round && !known[inj.Source][r] {
				learn(inj.Source, r)
				counts[r]++
				countKnown++
			}
		}

		// One draw per round whatever the worker count, so the run stream
		// evolves identically for every budget size.
		seed := s.Uint64()
		dates, err := svc.RunRoundShared(seed, b, nil)
		if err != nil {
			return 0, 0, false, err
		}
		// Synchronous semantics: forwarding decisions use start-of-round
		// knowledge, so collect transfers first and apply afterwards.
		type transfer struct {
			to    int
			rumor int
		}
		var mail []transfer
		for _, d := range dates {
			ks := knows[d.Sender]
			if len(ks) == 0 {
				continue
			}
			var rumor int
			if cfg.Forwarding == ForwardRoundRobin {
				rumor = int(ks[cursor[d.Sender]%len(ks)])
				cursor[d.Sender]++
			} else {
				rumor = int(ks[s.Intn(len(ks))])
			}
			mail = append(mail, transfer{to: int(d.Receiver), rumor: rumor})
		}
		for _, m := range mail {
			if !known[m.to][m.rumor] {
				learn(m.to, m.rumor)
				counts[m.rumor]++
				countKnown++
			}
		}

		for r := range counts {
			if counts[r] == n && res.PerRumorDone[r] == 0 {
				res.PerRumorDone[r] = round
			}
		}
		return len(dates), countKnown, countKnown == n*nRumors, nil
	})
	if err != nil {
		return MultiRumorResult{}, err
	}
	return res, nil
}
