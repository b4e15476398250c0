package core

import (
	"sync"
	"testing"

	"repro/internal/overlay"
	"repro/internal/rng"
)

// TestSelectorsConcurrentPick locks in the engine's fanout contract for
// every selector of this package: concurrent Pick calls with distinct
// streams must not mutate any shared state. The race detector turns a violation into a
// failure; the in-range check guards the returned values themselves.
func TestSelectorsConcurrentPick(t *testing.T) {
	const n = 256

	uni, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(i%5 + 1)
	}
	wsel, err := NewWeightedSelector(weights)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := overlay.NewRing(n, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	rsel, err := NewRingSelector(ring)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sel  Selector
	}{
		{"uniform", uni},
		{"weighted", wsel},
		{"ring", rsel},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const goroutines, picks = 8, 2000
			var wg sync.WaitGroup
			errs := make([]int, goroutines) // out-of-range picks per goroutine
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					s := rng.New(rng.Derive(77, uint64(g)))
					for k := 0; k < picks; k++ {
						if v := tc.sel.Pick(s); v < 0 || v >= tc.sel.N() {
							errs[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			for g, e := range errs {
				if e > 0 {
					t.Fatalf("goroutine %d: %d out-of-range picks", g, e)
				}
			}
		})
	}
}
