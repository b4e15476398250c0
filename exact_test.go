package repro_test

// Exact small-n oracles for one dating round. At unit bandwidth under
// uniform selection every node sends one offer and one request to
// independent uniform rendezvous, and a rendezvous v arranges
// min(O_v, R_v) dates, self-dates included. Enumerating all n^(2n) pick
// vectors gives the exact law of the round's date count, which the
// Poisson limit only approximates at these sizes (0.538 of n at n = 4,
// against 0.476). Both substrates are chi-square tested against it: the
// flat round and the message-level handshake.

import (
	"fmt"
	"testing"

	"repro"
)

// exactDatePMF returns P(dates = k), k = 0..n, of one unit-bandwidth
// uniform round over n nodes, by enumerating every pick vector.
func exactDatePMF(n int) []float64 {
	picks := 2 * n // offers of nodes 0..n-1, then their requests
	total := 1
	for i := 0; i < picks; i++ {
		total *= n
	}
	counts := make([]int, n+1)
	offers, requests := make([]int, n), make([]int, n)
	for idx := 0; idx < total; idx++ {
		clear(offers)
		clear(requests)
		x := idx
		for i := 0; i < picks; i++ {
			if i < n {
				offers[x%n]++
			} else {
				requests[x%n]++
			}
			x /= n
		}
		dates := 0
		for v := 0; v < n; v++ {
			dates += min(offers[v], requests[v])
		}
		counts[dates]++
	}
	pmf := make([]float64, n+1)
	for k, c := range counts {
		pmf[k] = float64(c) / float64(total)
	}
	return pmf
}

// chi2Crit999 holds the 0.999 quantiles of the chi-square law with 1..4
// degrees of freedom: a check against them raises a false alarm with
// probability 10^-3 when the sampler is right.
var chi2Crit999 = []float64{10.828, 13.816, 16.266, 18.467}

// checkDateLaw chi-square tests observed date counts (obs[k] rounds with k
// dates) against pmf, with n degrees of freedom over the n+1 outcomes.
func checkDateLaw(t *testing.T, what string, obs []int, pmf []float64) {
	t.Helper()
	rounds := 0
	for _, c := range obs {
		rounds += c
	}
	x2 := 0.0
	for k, p := range pmf {
		want := p * float64(rounds)
		if want < 5 {
			t.Fatalf("%s: expected count %.1f of %d dates is too small for the chi-square test", what, want, k)
		}
		d := float64(obs[k]) - want
		x2 += d * d / want
	}
	if crit := chi2Crit999[len(pmf)-2]; x2 > crit {
		t.Errorf("%s: chi-square %.2f over %d rounds exceeds the 0.999 quantile %.3f (observed %v, exact %v)",
			what, x2, rounds, crit, obs, pmf)
	}
}

// TestExactDateLawConformance runs 2·10^5 seeded flat rounds at n = 2, 3
// and 4 and tests their date counts against the exact law; the seeds are
// fixed, so the test never flakes.
func TestExactDateLawConformance(t *testing.T) {
	const rounds = 200_000
	for _, n := range []int{2, 3, 4} {
		sel, err := repro.Uniform(n)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := repro.NewDatingService(repro.UnitBandwidth(n), sel)
		if err != nil {
			t.Fatal(err)
		}
		s := repro.NewStream(uint64(100 + n))
		obs := make([]int, n+1)
		for r := 0; r < rounds; r++ {
			res, err := svc.RunRoundSeeded(s.Uint64(), 1)
			if err != nil {
				t.Fatal(err)
			}
			obs[len(res.Dates)]++
		}
		checkDateLaw(t, fmt.Sprintf("flat round n=%d", n), obs, exactDatePMF(n))
	}
}

// TestHandshakeExactConformance tests the dating rounds of one bare
// handshake of 2·10^5 rounds at n = 2, 3 and 4 against the exact law.
// Under perfect sync every round scatters afresh and completes within its
// three network rounds, so its rounds are i.i.d.
func TestHandshakeExactConformance(t *testing.T) {
	const rounds = 200_000
	for _, n := range []int{2, 3, 4} {
		rep, err := repro.Run(repro.HandshakeConfig{Profile: repro.UnitBandwidth(n), Rounds: rounds},
			repro.WithSeed(uint64(200+n)))
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]int, n+1)
		for _, dates := range rep.Sent {
			obs[dates]++
		}
		checkDateLaw(t, fmt.Sprintf("handshake n=%d", n), obs, exactDatePMF(n))
	}
}
