package core

import (
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Tests of the symmetry structure of Lemma 3: conditionally on the number
// of arranged dates, the date set is a uniform random k-matching of the
// complete bipartite graph over bandwidth units. Two measurable
// consequences are checked: exchangeability of units within a node and the
// hypergeometric second moment of per-node date counts.

func TestLemma3PairwiseUniformity(t *testing.T) {
	// In a 3-node unit-bandwidth network, conditioned on any fixed number
	// of dates, every (sender, receiver) pair with sender != receiver must
	// be equally likely to appear. (Self-dates sender == receiver are
	// possible too — a node's own offer and request can meet at the same
	// rendezvous — but they have a different marginal, so we compare only
	// the off-diagonal pairs.)
	const n = 3
	sel, _ := NewUniformSelector(n)
	sv, err := NewService(bandwidth.Homogeneous(n, 1), sel)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(1)
	counts := map[[2]int]int{}
	total := 0
	const rounds = 120000
	for r := 0; r < rounds; r++ {
		for _, d := range seededRound(t, sv, s.Uint64()).Dates {
			if d.Sender != d.Receiver {
				counts[[2]int{int(d.Sender), int(d.Receiver)}]++
				total++
			}
		}
	}
	pairs := n * (n - 1)
	want := float64(total) / float64(pairs)
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("pair %v: count %d, want %.0f ± 5%%", pair, c, want)
		}
	}
	if len(counts) != pairs {
		t.Errorf("only %d of %d pairs ever dated", len(counts), pairs)
	}
}

func TestLemma3UnitExchangeability(t *testing.T) {
	// A node with bout = 3 has three exchangeable outgoing units; its
	// per-round matched count averaged over rounds must equal 3x the
	// per-unit rate of a bout = 1 node in the same network.
	const n = 60
	profile := bandwidth.Homogeneous(n, 1)
	profile.Out[0] = 3
	profile.In[0] = 3 // keep the C-ratio at 1
	sel, _ := NewUniformSelector(n)
	sv, err := NewService(profile, sel)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(2)
	var big, small stats.Accumulator
	const rounds = 30000
	for r := 0; r < rounds; r++ {
		out, _ := seededRound(t, sv, s.Uint64()).PerNode(n)
		big.Add(float64(out[0]))
		small.Add(float64(out[1]))
	}
	ratio := big.Mean() / small.Mean()
	if math.Abs(ratio-3) > 0.15 {
		t.Fatalf("3-unit node matched %.3f vs 1-unit node %.3f: ratio %.2f, want 3",
			big.Mean(), small.Mean(), ratio)
	}
}

func TestLemma3HypergeometricVariance(t *testing.T) {
	// Conditional on k total dates, a fixed node's matched outgoing units
	// follow Hypergeometric(Bout, bout_i, k). Unconditionally,
	// Var(X_i) = E[Var(X_i | K)] + Var(E[X_i | K]); we verify the
	// conditional part by binning rounds on K and comparing the empirical
	// within-bin variance to the hypergeometric formula.
	const n = 40
	sel, _ := NewUniformSelector(n)
	sv, err := NewService(bandwidth.Homogeneous(n, 1), sel)
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(3)
	perK := map[int]*stats.Accumulator{}
	const rounds = 60000
	for r := 0; r < rounds; r++ {
		res := seededRound(t, sv, s.Uint64())
		k := len(res.Dates)
		acc, ok := perK[k]
		if !ok {
			acc = &stats.Accumulator{}
			perK[k] = acc
		}
		out, _ := res.PerNode(n)
		acc.Add(float64(out[7])) // an arbitrary fixed node
	}
	checked := 0
	for k, acc := range perK {
		if acc.N() < 3000 {
			continue // not enough mass in this bin for a variance check
		}
		// Hypergeometric(N=Bout=n, K=bout_i=1, draws=k):
		// mean = k/n, var = (k/n)(1-k/n)(n-k)/(n-1)... with K=1 the count
		// is Bernoulli(k/n), so var = (k/n)(1 - k/n).
		p := float64(k) / float64(n)
		wantMean, wantVar := p, p*(1-p)
		if math.Abs(acc.Mean()-wantMean) > 0.03 {
			t.Errorf("k=%d: mean %.4f, want %.4f", k, acc.Mean(), wantMean)
		}
		if math.Abs(acc.Var()-wantVar) > 0.03 {
			t.Errorf("k=%d: var %.4f, want %.4f", k, acc.Var(), wantVar)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no K-bin accumulated enough rounds; widen the experiment")
	}
}
