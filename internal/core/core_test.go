package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/bandwidth"
	"repro/internal/overlay"
	"repro/internal/rng"
	"repro/internal/stats"
)

func mustService(t *testing.T, p bandwidth.Profile, sel Selector) *Service {
	t.Helper()
	sv, err := NewService(p, sel)
	if err != nil {
		t.Fatal(err)
	}
	return sv
}

func uniformService(t *testing.T, n, b int) *Service {
	t.Helper()
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	return mustService(t, bandwidth.Homogeneous(n, b), sel)
}

func TestSelectorValidation(t *testing.T) {
	if _, err := NewUniformSelector(0); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := NewWeightedSelector(nil); err == nil {
		t.Error("accepted empty weights")
	}
	if _, err := NewRingSelector(nil); err == nil {
		t.Error("accepted nil ring")
	}
}

func TestNewServiceValidation(t *testing.T) {
	sel, _ := NewUniformSelector(4)
	if _, err := NewService(bandwidth.Homogeneous(5, 1), sel); err == nil {
		t.Error("accepted node-count mismatch")
	}
	if _, err := NewService(bandwidth.Profile{In: []int{0, 1}, Out: []int{1, 1}}, sel); err == nil {
		t.Error("accepted zero bandwidth")
	}
	if _, err := NewService(bandwidth.Homogeneous(4, 1), nil); err == nil {
		t.Error("accepted nil selector")
	}
}

func TestUniformSelectorRange(t *testing.T) {
	sel, _ := NewUniformSelector(7)
	s := rng.New(1)
	for i := 0; i < 1000; i++ {
		if v := sel.Pick(s); v < 0 || v >= 7 {
			t.Fatalf("pick %d out of range", v)
		}
	}
	if sel.N() != 7 {
		t.Fatalf("N = %d", sel.N())
	}
}

func TestWeightedSelectorSkew(t *testing.T) {
	sel, err := NewWeightedSelector([]float64{1, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	s := rng.New(2)
	counts := make([]int, 3)
	for i := 0; i < 100000; i++ {
		counts[sel.Pick(s)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight node picked %d times", counts[1])
	}
	if ratio := float64(counts[2]) / float64(counts[0]); math.Abs(ratio-3) > 0.2 {
		t.Fatalf("weight ratio %.2f, want 3", ratio)
	}
}

func TestRingSelectorMatchesIntervals(t *testing.T) {
	ring, err := overlay.NewRing(16, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewRingSelector(ring)
	if err != nil {
		t.Fatal(err)
	}
	if sel.N() != 16 {
		t.Fatalf("N = %d", sel.N())
	}
	w := ring.IntervalWeights()
	s := rng.New(4)
	counts := make([]int, 16)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[sel.Pick(s)]++
	}
	for i := range w {
		got := float64(counts[i]) / draws
		if math.Abs(got-w[i]) > 0.05*w[i]+0.003 {
			t.Errorf("node %d: frequency %v vs weight %v", i, got, w[i])
		}
	}
}

func TestRunRoundCapacityInvariant(t *testing.T) {
	// The paper's core safety claim: communication capabilities are never
	// exceeded, for any profile and distribution.
	s := rng.New(5)
	profiles := []bandwidth.Profile{
		bandwidth.Homogeneous(50, 1),
		bandwidth.Homogeneous(50, 4),
	}
	if p, err := bandwidth.Zipf(50, 1.1, 16, 2, s); err == nil {
		profiles = append(profiles, p)
	} else {
		t.Fatal(err)
	}
	if p, err := bandwidth.Bimodal(50, 5, 10, 1); err == nil {
		profiles = append(profiles, p)
	} else {
		t.Fatal(err)
	}
	for _, p := range profiles {
		sel, _ := NewUniformSelector(p.N())
		sv := mustService(t, p, sel)
		for round := 0; round < 20; round++ {
			res := sv.RunRound(s)
			if err := ValidateCapacities(res, p); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

func TestRunRoundCapacityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64, nRaw, bRaw uint8) bool {
		n := int(nRaw%40) + 2
		b := int(bRaw%4) + 1
		s := rng.New(seed)
		sv := &Service{}
		sel, err := NewUniformSelector(n)
		if err != nil {
			return false
		}
		sv, err = NewService(bandwidth.Homogeneous(n, b), sel)
		if err != nil {
			return false
		}
		res := sv.RunRound(s)
		return ValidateCapacities(res, sv.Profile()) == nil
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRoundRequestCounts(t *testing.T) {
	sv := uniformService(t, 20, 3)
	res := sv.RunRound(rng.New(6))
	if res.OffersSent != 60 || res.RequestsSent != 60 {
		t.Fatalf("sent %d offers / %d requests, want 60/60", res.OffersSent, res.RequestsSent)
	}
}

func TestUniformFractionNearPaper(t *testing.T) {
	// Paper, Section 4: with uniform selection and n requests of each type
	// the average number of dates is "always slightly more than 0.47 n".
	// The exact asymptotic for this process is E[X]/n -> sum over nodes of
	// E[min(Po(1), ...)] — empirically 0.47–0.48. Require [0.45, 0.50] at
	// n = 1000 over 200 rounds.
	const n = 1000
	sv := uniformService(t, n, 1)
	s := rng.New(7)
	var acc stats.Accumulator
	for r := 0; r < 200; r++ {
		res := sv.RunRound(s)
		acc.Add(res.Fraction(n))
	}
	if acc.Mean() < 0.45 || acc.Mean() > 0.50 {
		t.Fatalf("uniform fraction %.4f, want ~0.47", acc.Mean())
	}
	// Concentration (Lemma 2): stddev across rounds should be small.
	if acc.Std() > 0.03 {
		t.Fatalf("fraction stddev %.4f, expected tight concentration", acc.Std())
	}
}

func TestDHTFractionBeatsUniform(t *testing.T) {
	// Paper conjecture (Section 2) + Figure 1: non-uniform distributions
	// arrange MORE dates; DHT interval selection gives >= 0.52 n.
	const n = 500
	s := rng.New(8)
	ring, err := overlay.NewRing(n, s.Split())
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := NewRingSelector(ring)
	sv := mustService(t, bandwidth.Homogeneous(n, 1), sel)
	var acc stats.Accumulator
	for r := 0; r < 200; r++ {
		acc.Add(sv.RunRound(s).Fraction(n))
	}
	if acc.Mean() < 0.50 {
		t.Fatalf("DHT fraction %.4f, paper reports >= 0.52", acc.Mean())
	}
}

func TestPointMassDistribution(t *testing.T) {
	// Extreme case from the paper's load-balancing remark: sending all
	// requests to a single node centralizes the scheme — every offer and
	// demand meet at one rendezvous, so q = min(Bout, Bin) = m dates are
	// arranged (fraction 1.0).
	const n = 100
	sel, err := NewWeightedSelector(append([]float64{1}, make([]float64, n-1)...))
	if err != nil {
		t.Fatal(err)
	}
	sv := mustService(t, bandwidth.Homogeneous(n, 1), sel)
	res := sv.RunRound(rng.New(9))
	if len(res.Dates) != n {
		t.Fatalf("centralized rendezvous arranged %d dates, want %d", len(res.Dates), n)
	}
	if err := ValidateCapacities(res, sv.Profile()); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousProfileFraction(t *testing.T) {
	// Lemma 1 holds for any profile: fraction stays bounded away from 0.
	s := rng.New(10)
	p, err := bandwidth.Zipf(800, 1.0, 32, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := NewUniformSelector(p.N())
	sv := mustService(t, p, sel)
	var acc stats.Accumulator
	for r := 0; r < 50; r++ {
		acc.Add(sv.RunRound(s).Fraction(p.M()))
	}
	if acc.Mean() < 0.30 {
		t.Fatalf("heterogeneous fraction %.4f too low", acc.Mean())
	}
	if acc.Mean() > 1 {
		t.Fatalf("fraction %.4f exceeds the centralized optimum", acc.Mean())
	}
}

func TestFractionGrowsWithLoad(t *testing.T) {
	// Paper: "the ratio E[X]/m is an increasing function of m/n".
	const n = 400
	s := rng.New(11)
	var prev float64
	for _, b := range []int{1, 2, 4, 8} {
		sv := uniformService(t, n, b)
		var acc stats.Accumulator
		for r := 0; r < 60; r++ {
			acc.Add(sv.RunRound(s).Fraction(sv.M()))
		}
		if acc.Mean() <= prev {
			t.Fatalf("fraction did not grow with load: b=%d gives %.4f after %.4f", b, acc.Mean(), prev)
		}
		prev = acc.Mean()
	}
	if prev < 0.8 {
		t.Fatalf("fraction at m/n=8 is %.4f, expected near saturation", prev)
	}
}

func TestMatchRendezvousSizes(t *testing.T) {
	s := rng.New(14)
	cases := []struct{ offers, requests, want int }{
		{0, 0, 0}, {3, 0, 0}, {0, 5, 0}, {3, 3, 3}, {5, 2, 2}, {1, 9, 1},
	}
	for _, c := range cases {
		offers := make([]int32, c.offers)
		requests := make([]int32, c.requests)
		for i := range offers {
			offers[i] = int32(i)
		}
		for i := range requests {
			requests[i] = int32(100 + i)
		}
		got := 0
		MatchRendezvous(offers, requests, s, func(_, _ int32) { got++ })
		if got != c.want {
			t.Errorf("(%d offers, %d requests): %d dates, want %d", c.offers, c.requests, got, c.want)
		}
	}
}

func TestMatchRendezvousNoDuplicates(t *testing.T) {
	prop := func(seed uint64, so, sr uint8) bool {
		str := rng.New(seed)
		nOffers := int(so % 20)
		nReqs := int(sr % 20)
		offers := make([]int32, nOffers)
		requests := make([]int32, nReqs)
		for i := range offers {
			offers[i] = int32(i)
		}
		for i := range requests {
			requests[i] = int32(1000 + i)
		}
		usedS := map[int32]bool{}
		usedR := map[int32]bool{}
		okAll := true
		MatchRendezvous(offers, requests, str, func(sender, receiver int32) {
			if usedS[sender] || usedR[receiver] {
				okAll = false
			}
			usedS[sender] = true
			usedR[receiver] = true
			if sender < 0 || sender >= int32(nOffers) || receiver < 1000 || receiver >= int32(1000+nReqs) {
				okAll = false
			}
		})
		return okAll
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchingUniformity(t *testing.T) {
	// Lemma 3 ingredient: with 2 offers {0,1} and 2 requests {10,11}, the
	// two perfect matchings must be equally likely.
	s := rng.New(16)
	counts := map[[2]int32]int{}
	const draws = 40000
	for i := 0; i < draws; i++ {
		offers := []int32{0, 1}
		requests := []int32{10, 11}
		var first [2]int32
		got := 0
		MatchRendezvous(offers, requests, s, func(sender, receiver int32) {
			if got == 0 {
				first = [2]int32{sender, receiver}
			}
			got++
		})
		if got != 2 {
			t.Fatalf("expected 2 dates, got %d", got)
		}
		counts[first]++
	}
	// Four equally likely (sender, receiver) first-pairs.
	want := float64(draws) / 4
	for pair, c := range counts {
		if math.Abs(float64(c)-want) > 0.06*want {
			t.Errorf("pair %v count %d, want %.0f +/- 6%%", pair, c, want)
		}
	}
}

func TestSubsetSelectionUniform(t *testing.T) {
	// With 3 offers and 1 request, each offer must be matched with
	// probability 1/3 ("choose uniformly at random q requests of each type").
	s := rng.New(17)
	counts := make([]int, 3)
	const draws = 60000
	for i := 0; i < draws; i++ {
		offers := []int32{0, 1, 2}
		requests := []int32{9}
		MatchRendezvous(offers, requests, s, func(sender, _ int32) {
			counts[sender]++
		})
	}
	want := float64(draws) / 3
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("offer %d matched %d times, want %.0f", i, c, want)
		}
	}
}

func TestValidateCapacitiesDetectsViolations(t *testing.T) {
	p := bandwidth.Homogeneous(3, 1)
	res := RoundResult{
		Dates: []Date{{Sender: 0, Receiver: 1}, {Sender: 0, Receiver: 2}},
	}
	if err := ValidateCapacities(res, p); err == nil {
		t.Fatal("over-capacity sender accepted")
	}
	res2 := RoundResult{
		Dates: []Date{{Sender: 5, Receiver: 0}},
	}
	if err := ValidateCapacities(res2, p); err == nil {
		t.Fatal("invalid node accepted")
	}
}

func TestServiceReuseAcrossRounds(t *testing.T) {
	// Scratch reuse must not leak state: total dates over rounds with a
	// fresh service each round equals (statistically) reusing one service.
	s1, s2 := rng.New(18), rng.New(18)
	svReused := uniformService(t, 200, 1)
	var reused, fresh int
	for r := 0; r < 30; r++ {
		reused += len(svReused.RunRound(s1).Dates)
		svFresh := uniformService(t, 200, 1)
		fresh += len(svFresh.RunRound(s2).Dates)
	}
	if reused != fresh {
		t.Fatalf("reused service diverged: %d vs %d dates (same seed)", reused, fresh)
	}
}

func TestPerNodeHypergeometricShape(t *testing.T) {
	// Consequence of Lemma 3: conditional on k total dates, a fixed node's
	// matched outgoing units follow a hypergeometric law; unconditionally
	// each outgoing unit is matched with the same probability p ~ E[X]/Bout.
	// Check the unconditional marginal: every node's long-run matched-out
	// rate should be (nearly) identical.
	const n, rounds = 50, 4000
	sv := uniformService(t, n, 1)
	s := rng.New(19)
	matched := make([]int, n)
	total := 0
	for r := 0; r < rounds; r++ {
		res := sv.RunRound(s)
		out, _ := res.PerNode(n)
		for i := 0; i < n; i++ {
			matched[i] += out[i]
		}
		total += len(res.Dates)
	}
	mean := float64(total) / float64(n)
	for i, c := range matched {
		if math.Abs(float64(c)-mean) > 0.08*mean {
			t.Errorf("node %d matched %d times, mean %.0f (symmetry violated)", i, c, mean)
		}
	}
}
