package async

import (
	"math"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
	"repro/internal/simnet"
)

// TestAsyncClockConformance checks the clocks against their Poisson model
// with a protocol that does nothing: over Bimodal rates (a tenth of the
// peers at rate 8, the rest at rate 1) and T buckets of width 1, Fired is a
// sum of independent Poisson(rate_i·T) counts, so it lies within 5σ of
// Σ rate_i·T, and a rate-8 peer fires 8 times as often as a rate-1 peer.
func TestAsyncClockConformance(t *testing.T) {
	const n, T = 2000, 20
	prof, err := bandwidth.Bimodal(n, n/10, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	rates := make([]float64, n)
	for i, b := range prof.Out {
		rates[i] = float64(b)
	}
	fires := make([]int64, n) // per peer, so that shards write disjoint entries
	fire := func(peer, k int, t float64, s *rng.Stream, emit func(simnet.Message)) {
		fires[peer]++
	}
	rt, err := New(Config{N: n, Seed: 7, Fire: fire, Rates: rates, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt.RunBuckets(T)

	// The two classes' firings and peers, indexed by rate.
	var fired [9]int64
	var peers [9]int
	var want float64
	for i, r := range rates {
		fired[int(r)] += fires[i]
		peers[int(r)]++
		want += r * T
	}
	if rt.Fired() != fired[1]+fired[8] {
		t.Fatalf("Fired() = %d, the fire function ran %d times", rt.Fired(), fired[1]+fired[8])
	}
	if got := float64(rt.Fired()); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("Fired() = %.0f, want %.0f ± %.0f (5σ)", got, want, 5*math.Sqrt(want))
	}

	// ratio = (F8/peers8) / (F1/peers1); by the delta method its relative
	// variance is 1/E[F8] + 1/E[F1].
	f8, f1 := float64(fired[8]), float64(fired[1])
	ratio := (f8 / float64(peers[8])) / (f1 / float64(peers[1]))
	sigma := 8 * math.Sqrt(1/(8*T*float64(peers[8]))+1/(T*float64(peers[1])))
	if math.Abs(ratio-8) > 5*sigma {
		t.Errorf("a rate-8 peer fired %.3fx as often as a rate-1 peer, want 8 ± %.3f (5σ)", ratio, 5*sigma)
	}
	t.Logf("Fired %d of %.0f expected; class ratio %.3f (σ %.3f)", rt.Fired(), want, ratio, sigma)
}
