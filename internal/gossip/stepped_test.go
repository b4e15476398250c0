package gossip

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/async"
	"repro/internal/bandwidth"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/live"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// oracleClock is the test seam that steps a protocol on the sequential
// engine (simnet.Live), the differential oracle, instead of the sharded
// runtime, as one step shard. Every step's stream is seeded
// exactly as the runtime seeds it, and every peer is stepped whatever
// an active step answers, so a run that matches the runtime's bit for bit
// also shows that no peer wrongly reported "asleep".
func oracleClock(n int, o liveOptions, step live.StepFunc, active live.ActiveStepFunc) (ticker, func() int, []int, error) {
	if o.Net != nil {
		return nil, nil, nil, fmt.Errorf("gossip: the oracle runs perfect sync only")
	}
	if active != nil {
		step = func(node, round int, inbox []simnet.Message, s *rng.Stream, emit func(simnet.Message)) {
			active(node, round, inbox, s, emit)
		}
	}
	peerSeed := func(round, node int) uint64 { return live.PeerSeed(o.Seed, round, node) }
	eng, err := simnet.NewLive(n, peerSeed, adaptStep(step))
	if err != nil {
		return nil, nil, nil, err
	}
	// Under perfect sync what is in flight is the next round's mail.
	inFlight := func() int {
		c := 0
		for i := 0; i < n; i++ {
			c += len(eng.Inbox(i))
		}
		return c
	}
	return eng.Run, inFlight, []int{0, n}, nil
}

// adaptStep converts the emit-style step to the oracle's
// slice-returning shape, so both substrates run the same protocol code.
func adaptStep(step live.StepFunc) simnet.StepFunc {
	return func(node, round int, inbox []simnet.Message, s *rng.Stream) []simnet.Message {
		var out []simnet.Message
		step(node, round, inbox, s, func(m simnet.Message) { out = append(out, m) })
		return out
	}
}

// recount is the reference the tallies replace: the number of peers in
// each state 1..k, by scanning every peer.
func recount(p *peerStates, k int) []int {
	counts := make([]int, k)
	for _, v := range p.of {
		if v != 0 {
			counts[v-1]++
		}
	}
	return counts
}

// TestTalliesMatchRecount pins every protocol's per-step-shard tally
// against the full recount after every tick, at several shard counts.
// Each case wires its state and runtime the way its Run function does.
// Async's step cuts are balanced by clock rate, so on the bimodal profile
// its rows differ from the delivery owners'. Under -race it also pins that
// each tally row and each state byte has one writer.
func TestTalliesMatchRecount(t *testing.T) { checkTallies(t, "") }

// TestTopologyTalliesMatchRecount runs the topology rows of the table.
func TestTopologyTalliesMatchRecount(t *testing.T) { checkTallies(t, "topology") }

// TestConsensusTalliesMatchRecount runs the consensus rows, one per rule.
func TestConsensusTalliesMatchRecount(t *testing.T) { checkTallies(t, "consensus") }

// checkTallies runs the tallies-vs-recount table's cases whose name begins
// with protocol; the empty prefix runs them all.
func checkTallies(t *testing.T, protocol string) {
	const n, ticks = 3000, 40
	g := mustBA(t, n, 3, 7)
	sampler, err := graph.NewUniformNeighbors(g)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := core.NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	bimodal, err := bandwidth.Bimodal(n, n/10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	zipf, err := bandwidth.Zipf(n, 1.2, 8, 2.0, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// A setup returns the run's peer states, how many states its tally
	// counts, and one runtime tick.
	type setup func(shards int) (st *peerStates, k int, tick func(), err error)
	consensus := func(rule MergeRule) setup {
		return func(shards int) (*peerStates, int, func(), error) {
			var weight []float64
			if rule == RuleWeighted {
				weight = meanBandwidth(zipf)
			}
			st := newConsState(n, 3, rule)
			rt, err := live.New(live.Config{N: n, Seed: 42, Shards: shards, ActiveStep: consStep(sampler, st, weight)})
			if err != nil {
				return nil, 0, nil, err
			}
			st.key(rt.Cuts(), 3)
			for j, p := range []int{5, 1400, 2999} {
				st.set(p, uint8(j+1))
				if rule == RuleLatest {
					st.stamp[p] = int32(j + 1)
				} else {
					st.heardRow(p)[j]++
				}
			}
			return &st.peerStates, 3, func() { rt.Run(1) }, nil
		}
	}
	cases := []struct {
		name  string
		setup setup
	}{
		{"live", func(shards int) (*peerStates, int, func(), error) {
			st := newLiveState(n, false)
			rt, err := live.New(live.Config{N: n, Seed: 42, Shards: shards,
				Step: liveEmitStep(bandwidth.Homogeneous(n, 1), uniform, st, defaultRoundCap(n))})
			if err != nil {
				return nil, 0, nil, err
			}
			st.key(rt.Cuts(), 1)
			st.set(0, 1)
			return &st.peerStates, 1, func() { rt.Run(1) }, nil
		}},
		{"async", func(shards int) (*peerStates, int, func(), error) {
			st := newPeerStates(n)
			fire, recv := asyncHandlers(uniform, &st)
			rt, err := async.New(async.Config{N: n, Seed: 42, Shards: shards,
				Rates: meanBandwidth(bimodal), Fire: fire, Recv: recv})
			if err != nil {
				return nil, 0, nil, err
			}
			st.key(rt.Cuts(), 1)
			st.set(0, 1)
			return &st, 1, func() { rt.RunBuckets(1) }, nil
		}},
		{"topology", func(shards int) (*peerStates, int, func(), error) {
			st := newPeerStates(n)
			rt, err := live.New(live.Config{N: n, Seed: 42, Shards: shards,
				ActiveStep: topoStep(sampler, &st, 0.4, 1, 0.02)})
			if err != nil {
				return nil, 0, nil, err
			}
			st.key(rt.Cuts(), 2)
			st.set(0, topoSpreader)
			return &st, 2, func() { rt.Run(1) }, nil
		}},
		{"consensus-majority", consensus(RuleMajority)},
		{"consensus-latest", consensus(RuleLatest)},
		{"consensus-weighted", consensus(RuleWeighted)},
	}
	for _, tc := range cases {
		if !strings.HasPrefix(tc.name, protocol) {
			continue
		}
		for _, shards := range []int{1, 2, 3, 4, 8} {
			st, k, tick, err := tc.setup(shards)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.cuts) != shards+1 {
				t.Fatalf("%s shards=%d: the tally has %d rows", tc.name, shards, len(st.cuts)-1)
			}
			before := fmt.Sprint(recount(st, k))
			for i := 1; i <= ticks; i++ {
				tick()
				want := recount(st, k)
				for v := 1; v <= k; v++ {
					if got := st.count(uint8(v)); got != want[v-1] {
						t.Fatalf("%s shards=%d tick %d: tally counts %d peers in state %d, recount %d",
							tc.name, shards, i, got, v, want[v-1])
					}
				}
			}
			if fmt.Sprint(recount(st, k)) == before {
				t.Errorf("%s shards=%d: no peer changed state in %d ticks", tc.name, shards, ticks)
			}
		}
	}
}

// TestPeerStatesRow pins the row lookup against a linear scan of the cuts,
// empty step ranges included (rate-balanced cuts may leave a shard none).
func TestPeerStatesRow(t *testing.T) {
	for _, cuts := range [][]int{{0, 1}, {0, 7}, {0, 3, 7}, {0, 0, 4, 4, 9}, {0, 1, 2, 3, 4, 5}} {
		p := newPeerStates(cuts[len(cuts)-1])
		p.key(cuts, 2)
		for i := 0; i < cuts[len(cuts)-1]; i++ {
			want := 0
			for w := 0; w+1 < len(cuts); w++ {
				if cuts[w] <= i && i < cuts[w+1] {
					want = w
				}
			}
			if got := p.row(i); got != want {
				t.Errorf("cuts %v: peer %d in row %d, want %d", cuts, i, got, want)
			}
		}
	}
}
