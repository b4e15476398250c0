package repro_test

// Micro-benchmarks of the core primitives, for measuring while you work
// (`go test -run '^$' -bench . -benchmem`). The repository's benchmark is
// bench/ (`go run -C bench .`); the figures and experiments are
// `hetsim -experiment <name>`.

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/bandwidth"
	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/gossip"
	"repro/internal/overlay"
	"repro/internal/rng"
)

func benchDatingRound(b *testing.B, n int, sel core.Selector) {
	b.Helper()
	svc, err := core.NewService(bandwidth.Homogeneous(n, 1), sel)
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(1)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += len(svc.RunRound(s).Dates)
	}
	b.ReportMetric(float64(total)/float64(b.N)/float64(n), "frac")
}

func BenchmarkDatingRoundUniform1k(b *testing.B) {
	sel, _ := core.NewUniformSelector(1000)
	benchDatingRound(b, 1000, sel)
}

func BenchmarkDatingRoundUniform100k(b *testing.B) {
	sel, _ := core.NewUniformSelector(100000)
	benchDatingRound(b, 100000, sel)
}

func BenchmarkDatingRoundDHT1k(b *testing.B) {
	ring, err := overlay.NewRing(1000, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	sel, _ := core.NewRingSelector(ring)
	benchDatingRound(b, 1000, sel)
}

func BenchmarkChordLookup(b *testing.B) {
	ring, err := overlay.NewRing(4096, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(4)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h := ring.Lookup(s.Intn(4096), s.Uint64())
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops")
}

func BenchmarkCDLookup(b *testing.B) {
	ring, err := overlay.NewRing(4096, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	s := rng.New(6)
	b.ResetTimer()
	hops := 0
	for i := 0; i < b.N; i++ {
		_, h := ring.LookupCD(s.Intn(4096), s.Uint64())
		hops += h
	}
	b.ReportMetric(float64(hops)/float64(b.N), "hops")
}

func BenchmarkGossipRound(b *testing.B) {
	// Cost of one full spreading run at n=1024, per algorithm.
	for _, a := range gossip.Algorithms() {
		b.Run(a.String(), func(b *testing.B) {
			s := rng.New(7)
			rounds := 0
			for i := 0; i < b.N; i++ {
				res, err := gossip.Run(gossip.Config{Algorithm: a, N: 1024, Source: 0}, s, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				rounds += res.Rounds
			}
			b.ReportMetric(float64(rounds)/float64(b.N), "rounds")
		})
	}
}

func BenchmarkMatchRendezvous(b *testing.B) {
	// The rendezvous inner loop: match 8 offers against 8 requests.
	s := rng.New(10)
	offers := make([]int32, 8)
	requests := make([]int32, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range offers {
			offers[j] = int32(j)
			requests[j] = int32(100 + j)
		}
		core.MatchRendezvous(offers, requests, s, func(_, _ int32) {})
	}
}

func BenchmarkSelectorPick(b *testing.B) {
	// Ablation: cost of one destination draw per selection distribution.
	// Uniform is one bounded draw; alias is two draws + a table lookup;
	// the ring does a binary search over positions.
	const n = 4096
	uni, _ := core.NewUniformSelector(n)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i + 1)
	}
	wsel, _ := core.NewWeightedSelector(weights)
	ring, err := overlay.NewRing(n, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	rsel, _ := core.NewRingSelector(ring)
	for _, tc := range []struct {
		name string
		sel  core.Selector
	}{
		{"uniform", uni}, {"alias", wsel}, {"ring", rsel},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s := rng.New(12)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += tc.sel.Pick(s)
			}
			if sink == -1 {
				b.Log(sink)
			}
		})
	}
}

func BenchmarkArrangeDates(b *testing.B) {
	// The zero-allocation-profile-free path used by storage and the
	// churning-DHT experiments.
	const n = 1000
	sel, _ := core.NewUniformSelector(n)
	out := make([]int, n)
	in := make([]int, n)
	for i := range out {
		out[i] = 1
		in[i] = 1
	}
	s := rng.New(13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ArrangeDates(out, in, sel, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArranger(b *testing.B) {
	// The scratch-reusing engine path behind ArrangeDates; output is
	// bit-identical for every worker count, so the sub-benchmarks measure
	// pure coordination cost (speedup needs real cores).
	const n = 100000
	sel, _ := core.NewUniformSelector(n)
	out := make([]int, n)
	in := make([]int, n)
	for i := range out {
		out[i] = 1
		in[i] = 1
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
			arr, err := core.NewArranger(sel)
			if err != nil {
				b.Fatal(err)
			}
			s := rng.New(14)
			dates := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds, err := arr.Arrange(out, in, s.Uint64(), workers)
				if err != nil {
					b.Fatal(err)
				}
				dates += len(ds)
			}
			b.ReportMetric(float64(dates)/float64(b.N)/float64(n), "fraction")
			b.ReportMetric(float64(2*n)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

func BenchmarkGF256Mul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= coding.Mul(byte(i), byte(i>>8))
	}
	if acc == 1 {
		b.Log(acc) // defeat dead-code elimination
	}
}

func BenchmarkDecoderAddPacket(b *testing.B) {
	s := rng.New(8)
	const blocks, size = 32, 1024
	blocksData := make([][]byte, blocks)
	for i := range blocksData {
		blocksData[i] = make([]byte, size)
		for j := range blocksData[i] {
			blocksData[i][j] = byte(s.Intn(256))
		}
	}
	src, err := coding.Source(blocksData)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ := coding.NewDecoder(blocks, size)
		for !dst.Decoded() {
			pkt, _ := src.Emit(s)
			if _, err := dst.AddPacket(pkt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkHandshakeRound times a one-dating-round handshake run at
// n = 1000, runtime setup included.
func BenchmarkHandshakeRound(b *testing.B) {
	spec := repro.HandshakeConfig{Profile: repro.UnitBandwidth(1000), Rounds: 1}
	for i := 0; i < b.N; i++ {
		if _, err := repro.Run(spec, repro.WithSeed(9)); err != nil {
			b.Fatal(err)
		}
	}
}
