package gossip

import (
	"fmt"
	"math"

	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/run"
)

// The paper's model explicitly "allows for extensions such as rumors
// appearing in the network in course of time" (Section 1). MultiRumor
// implements that extension over the dating service: several rumors are
// injected at different rounds on different sources, every arranged date
// carries exactly one rumor (unit-size messages!), and the sender forwards
// one of its known rumors drawn uniformly at random.

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
// injected rumors on run.Flat (s, b and tr are Flat's) until every
// node knows every rumor or MaxRounds elapses. Each date's rumor is drawn
// off s after the round's seed, in date order.
func runMultiRumor(cfg MultiRumorConfig, s *rng.Stream, b *par.Budget, tr *obs.Track) (MultiRumorResult, error) {
	n := cfg.N
	if cfg.Profile.N() > 0 {
		n = cfg.Profile.N()
	} else if n <= 0 {
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
	nRumors := len(cfg.Injections)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64*nRumors + defaultRoundCap(n)
	}

	// knows[i] is a slice of rumor ids node i knows, in learning order
	// (the order a forwarding draw indexes); known[i][r] indexes it for O(1)
	// lookups.
	knows := make([][]int16, n)
	known := make([][]bool, n)
	for i := range known {
		known[i] = make([]bool, nRumors)
	}
	counts := make([]int, nRumors) // nodes knowing each rumor
	countKnown := 0                // total (node, rumor) pairs
	res := MultiRumorResult{PerRumorDone: make([]int, nRumors)}
	learn := func(node, rumor, round int) {
		if !known[node][rumor] {
			known[node][rumor] = true
			knows[node] = append(knows[node], int16(rumor))
			countKnown++
			counts[rumor]++
			if counts[rumor] == n {
				res.PerRumorDone[rumor] = round
			}
		}
	}

	// A round's transfers, reused: forwarding decisions use start-of-round
	// knowledge, so they are collected first and applied afterwards.
	type transfer struct {
		to    int32
		rumor int16
	}
	var mail []transfer
	sent := 0
	f := &run.Flat{N: n, Limit: maxRounds, Profile: cfg.Profile, Selector: cfg.Selector,
		Dates: func(round int, dates []core.Date) error {
			for r, inj := range cfg.Injections {
				if inj.Round == round {
					learn(inj.Source, r, round)
				}
			}
			mail = mail[:0]
			for _, d := range dates {
				ks := knows[d.Sender]
				if len(ks) == 0 {
					continue
				}
				mail = append(mail, transfer{to: d.Receiver, rumor: ks[s.Intn(len(ks))]})
			}
			for _, m := range mail {
				learn(int(m.to), int(m.rumor), round)
			}
			sent = len(dates)
			return nil
		},
		End: func(int) (int, int, bool) { return countKnown, sent, countKnown == n*nRumors },
	}
	fr, err := f.Drive(s, b, tr)
	if err != nil {
		return MultiRumorResult{}, err
	}
	res.Stepped = fr.Stepped
	return res, nil
}
