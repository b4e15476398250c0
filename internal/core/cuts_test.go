package core

import (
	"reflect"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/exch"
	"repro/internal/rng"
)

// cutsAgree checks prefixCuts against its oracle: exch.BalancedCuts over the
// bucket sizes that the two offset arrays are the prefix sums of.
func cutsAgree(t *testing.T, offers, reqs []int32, workers int) {
	t.Helper()
	n := len(offers)
	offerOff, reqOff := make([]int32, n+1), make([]int32, n+1)
	for v := 0; v < n; v++ {
		offerOff[v+1] = offerOff[v] + offers[v]
		reqOff[v+1] = reqOff[v] + reqs[v]
	}
	want := exch.BalancedCuts(nil, n, workers, func(v int) int { return int(offers[v]) + int(reqs[v]) })
	if got := prefixCuts(nil, workers, offerOff, reqOff); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=%d offers=%v reqs=%v: prefix cuts %v, BalancedCuts %v", workers, offers, reqs, got, want)
	}
}

func TestPrefixCutsEqualBalancedCuts(t *testing.T) {
	s := rng.New(77)
	shapes := map[string]func(v, n int) (int32, int32){
		"random": func(_, _ int) (int32, int32) { return int32(s.Intn(9)), int32(s.Intn(9)) },
		"mostly empty": func(_, _ int) (int32, int32) {
			if s.Intn(4) > 0 {
				return 0, 0
			}
			return int32(s.Intn(40)), int32(s.Intn(3))
		},
		"all zero": func(_, _ int) (int32, int32) { return 0, 0 },
		"one bucket": func(v, n int) (int32, int32) {
			if v == n/3 {
				return 1000, 700
			}
			return 0, 0
		},
		"last bucket": func(v, n int) (int32, int32) {
			if v == n-1 {
				return 5, 0
			}
			return 0, 0
		},
	}
	for name, shape := range shapes {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 5, 64, 257} {
				offers, reqs := make([]int32, n), make([]int32, n)
				for v := range offers {
					offers[v], reqs[v] = shape(v, n)
				}
				for _, workers := range []int{1, 2, 3, 7, n + 1} {
					cutsAgree(t, offers, reqs, workers)
				}
			}
		})
	}
}

// FuzzPrefixCuts reads the bucket sizes off a byte string, one (offers,
// requests) pair per bucket.
func FuzzPrefixCuts(f *testing.F) {
	f.Add([]byte{}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, uint8(3))
	f.Add([]byte{3, 1, 0, 0, 255, 255, 0, 7, 2, 2}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 200, 100}, uint8(7))
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1}, uint8(9))
	f.Fuzz(func(t *testing.T, sizes []byte, w uint8) {
		n := len(sizes) / 2
		offers, reqs := make([]int32, n), make([]int32, n)
		for v := 0; v < n; v++ {
			offers[v], reqs[v] = int32(sizes[2*v]), int32(sizes[2*v+1])
		}
		cutsAgree(t, offers, reqs, int(w)%12+1)
	})
}

func TestRoundCutsMatchOracleOnARealRound(t *testing.T) {
	// The arrays a round really leaves behind: after a seeded round the
	// engine's rendezvous cuts are BalancedCuts over its bucket sizes.
	s := rng.New(5)
	p, err := bandwidth.Zipf(3000, 1.1, 32, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewUniformSelector(p.N())
	if err != nil {
		t.Fatal(err)
	}
	sv := mustService(t, p, sel)
	for _, workers := range []int{1, 2, 3, 7} {
		if _, err := sv.RunRoundSeeded(9, workers); err != nil {
			t.Fatal(err)
		}
		e := &sv.eng
		want := exch.BalancedCuts(nil, p.N(), workers, func(v int) int {
			return int(e.offerOff[v+1]-e.offerOff[v]) + int(e.reqOff[v+1]-e.reqOff[v])
		})
		if !reflect.DeepEqual(e.rdvCut, want) {
			t.Fatalf("workers=%d: engine matched by cuts %v, BalancedCuts over its buckets gives %v", workers, e.rdvCut, want)
		}
	}
}
