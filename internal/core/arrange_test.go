package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bandwidth"
	"repro/internal/rng"
)

// referenceArrange is the seed algorithm the flat engine replaced: a
// per-node append scatter into one heap slice per rendezvous, followed by a
// bucket walk in rendezvous order. It is kept here — fed the same per-node
// and per-bucket derived streams as a seeded round — as the executable
// specification the flat counting-sort layout must reproduce exactly. Under
// alive (nil: everyone) a dead node draws nothing, and a request to a dead
// rendezvous is drawn and lost. It returns the dates and the numbers of
// offers and requests that reached a rendezvous.
func referenceArrange(t *testing.T, out, in []int, sel Selector, seed uint64, alive func(i int) bool) (dates []Date, offers, requests int) {
	t.Helper()
	n := sel.N()
	offersAt := make([][]int32, n)
	requestsAt := make([][]int32, n)
	gen := rng.NewXoshiro256(0)
	s := rng.NewWithSource(gen)
	for i := 0; i < n; i++ {
		if (out[i] == 0 && in[i] == 0) || (alive != nil && !alive(i)) {
			continue
		}
		gen.Seed(rng.Derive(seed, domainScatter, uint64(i)))
		for k := 0; k < out[i]; k++ {
			if dest := sel.Pick(s); alive == nil || alive(dest) {
				offersAt[dest] = append(offersAt[dest], int32(i))
				offers++
			}
		}
		for k := 0; k < in[i]; k++ {
			if dest := sel.Pick(s); alive == nil || alive(dest) {
				requestsAt[dest] = append(requestsAt[dest], int32(i))
				requests++
			}
		}
	}
	for v := 0; v < n; v++ {
		if len(offersAt[v]) == 0 || len(requestsAt[v]) == 0 {
			continue
		}
		gen.Seed(rng.Derive(seed, domainMatch, uint64(v)))
		MatchRendezvous(offersAt[v], requestsAt[v], s, func(sender, receiver int32) {
			dates = append(dates, Date{Sender: sender, Receiver: receiver})
		})
	}
	return dates, offers, requests
}

// emptySelector is the degenerate n = 0 distribution (no node ever requests
// anything, so Pick must never be called).
type emptySelector struct{}

func (emptySelector) Pick(*rng.Stream) int { panic("pick on an empty selector") }
func (emptySelector) N() int               { return 0 }

// arrangeCase builds a randomized (requests, selector) input at size n.
func arrangeCase(t *testing.T, n int, maxB int, s *rng.Stream) (out, in []int, sel Selector) {
	t.Helper()
	out = make([]int, n)
	in = make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = s.Intn(maxB + 1) // zeros included: fluctuating demand
		in[i] = s.Intn(maxB + 1)
	}
	if n == 0 {
		return out, in, emptySelector{}
	}
	if s.Bool() {
		u, err := NewUniformSelector(n)
		if err != nil {
			t.Fatal(err)
		}
		return out, in, u
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = float64(s.Intn(9) + 1)
	}
	ws, err := NewWeightedSelector(w)
	if err != nil {
		t.Fatal(err)
	}
	return out, in, ws
}

// validateArrangement checks the paper's safety property directly on an
// ArrangeDates result: no node exceeds its declared supply or demand.
func validateArrangement(t *testing.T, dates []Date, out, in []int) {
	t.Helper()
	if err := ValidateCapacities(RoundResult{Dates: dates}, bandwidth.Profile{Out: out, In: in}); err != nil {
		t.Fatal(err)
	}
}

func TestArrangeMatchesReference(t *testing.T) {
	// The equivalence property of the one round body: it produces the exact
	// date sequence of the seed's append-scatter algorithm (a fortiori the
	// same multiset), serially and at every worker count, through both of
	// its callers. Randomized (supply, demand, selector) inputs — zeros
	// included — go through the Arranger; the two profiles go through the
	// Arranger and the Service, the Service also under churn, where the
	// control-message counters must match too and no date may touch a dead
	// node. Every result passes the capacity check.
	type roundCase struct {
		name    string
		out, in []int
		sel     Selector
		profile bool // out/in are a valid profile: run the Service as well
	}
	var cases []roundCase
	caseRng := rng.New(17)
	for _, n := range []int{0, 1, 17, 1000} {
		for trial := 0; trial < 6; trial++ {
			out, in, sel := arrangeCase(t, n, 4, caseRng)
			cases = append(cases, roundCase{fmt.Sprintf("random n=%d trial=%d", n, trial), out, in, sel, false})
		}
	}
	uni, err := NewUniformSelector(1000)
	if err != nil {
		t.Fatal(err)
	}
	hom := bandwidth.Homogeneous(1000, 2)
	cases = append(cases, roundCase{"uniform b=2", hom.Out, hom.In, uni, true})
	// A Zipf profile under a weighted selector: skewed sender shards and
	// non-uniform destination load exercise the exchange's unbalanced chunks.
	zipf, err := bandwidth.Zipf(700, 1.1, 8, 2, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	weights := make([]float64, zipf.N())
	for i := range weights {
		weights[i] = float64(i%5 + 1)
	}
	skew, err := NewWeightedSelector(weights)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, roundCase{"zipf weighted", zipf.Out, zipf.In, skew, true})

	churn := []struct {
		name  string
		alive func(i int) bool
	}{
		{"everyone alive", nil},
		{"every fifth dead", func(i int) bool { return i%5 != 0 }},
		{"all dead", func(int) bool { return false }},
	}
	for _, c := range cases {
		seed := caseRng.Uint64()
		for _, ch := range churn {
			if ch.alive != nil && !c.profile {
				continue // the Arranger has no liveness predicate
			}
			want, wantOffers, wantRequests := referenceArrange(t, c.out, c.in, c.sel, seed, ch.alive)
			validateArrangement(t, want, c.out, c.in)
			if ch.name == "all dead" && (len(want) != 0 || wantOffers != 0) {
				t.Fatalf("%s: dead network arranged %d dates", c.name, len(want))
			}
			for _, workers := range []int{1, 2, 4, 7, 8} {
				if ch.alive == nil {
					a, err := NewArranger(c.sel)
					if err != nil {
						t.Fatal(err)
					}
					got, err := a.Arrange(c.out, c.in, seed, workers)
					if err != nil {
						t.Fatalf("%s workers=%d: %v", c.name, workers, err)
					}
					if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s workers=%d: %d arranged dates diverge from the reference (%d)",
							c.name, workers, len(got), len(want))
					}
				}
				if !c.profile {
					continue
				}
				p := bandwidth.Profile{Out: c.out, In: c.in}
				res, err := mustService(t, p, c.sel).RunRoundSeededFiltered(seed, workers, ch.alive)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", c.name, workers, err)
				}
				if len(res.Dates) != len(want) || (len(want) > 0 && !reflect.DeepEqual(res.Dates, want)) {
					t.Fatalf("%s, %s, workers=%d: %d service dates diverge from the reference (%d)",
						c.name, ch.name, workers, len(res.Dates), len(want))
				}
				if res.OffersSent != wantOffers || res.RequestsSent != wantRequests {
					t.Fatalf("%s, %s, workers=%d: counters %d/%d, reference %d/%d",
						c.name, ch.name, workers, res.OffersSent, res.RequestsSent, wantOffers, wantRequests)
				}
				if err := ValidateCapacities(res, p); err != nil {
					t.Fatalf("%s, %s, workers=%d: %v", c.name, ch.name, workers, err)
				}
				for _, d := range res.Dates {
					if ch.alive != nil && (!ch.alive(int(d.Sender)) || !ch.alive(int(d.Receiver))) {
						t.Fatalf("%s, %s: date %v involves a dead node", c.name, ch.name, d)
					}
				}
			}
		}
	}
}

func TestArrangeWorkersBitIdentical10k(t *testing.T) {
	// The acceptance bar: at n = 10k, Workers=k yields bit-identical dates
	// to Workers=1 for a fixed seed, on fresh and on reused scratch alike.
	const n, seed = 10000, 4242
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, n)
	in := make([]int, n)
	prof := rng.New(1)
	for i := 0; i < n; i++ {
		out[i] = prof.Intn(3)
		in[i] = prof.Intn(3)
	}
	base, err := NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Arrange(out, in, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("degenerate round: no dates arranged")
	}
	for _, workers := range []int{2, 3, 4, 8} {
		a, err := NewArranger(sel)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 2; rep++ { // rep 1 exercises reused scratch
			got, err := a.Arrange(out, in, seed, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d rep=%d: dates differ from serial", workers, rep)
			}
		}
	}
}

func TestArrangeMixedSerialParallelScratchReset(t *testing.T) {
	// Regression: one Arranger cycling through worker counts and changing
	// supply/demand every round must behave exactly like a fresh Arranger —
	// any scratch not fully reset between mixed serial/parallel calls would
	// surface as a divergence.
	const n = 400
	sel, err := NewUniformSelector(n)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	roundRng := rng.New(99)
	workerCycle := []int{1, 4, 2, 8, 1, 3}
	for round := 0; round < 18; round++ {
		out := make([]int, n)
		in := make([]int, n)
		for i := 0; i < n; i++ {
			out[i] = roundRng.Intn(4)
			in[i] = roundRng.Intn(4)
		}
		seed := roundRng.Uint64()
		workers := workerCycle[round%len(workerCycle)]
		got, err := reused.Arrange(out, in, seed, workers)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewArranger(sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Arrange(out, in, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (workers=%d): reused scratch diverged from a fresh arranger", round, workers)
		}
		validateArrangement(t, got, out, in)
	}
}

func TestArrangeValidation(t *testing.T) {
	if _, err := NewArranger(nil); err == nil {
		t.Error("accepted a nil selector")
	}
	sel, err := NewUniformSelector(4)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Arrange([]int{1, 1, 1, 1}, []int{1, 1, 1, 1}, 1, 0); err == nil {
		t.Error("accepted workers = 0")
	}
	if _, err := a.Arrange([]int{1, 1}, []int{1, 1, 1, 1}, 1, 1); err == nil {
		t.Error("accepted a short supply vector")
	}
	if _, err := a.Arrange([]int{1, -1, 1, 1}, []int{1, 1, 1, 1}, 1, 1); err == nil {
		t.Error("accepted negative supply")
	}
	if _, err := ArrangeDates([]int{1}, []int{1}, nil, 1); err == nil {
		t.Error("ArrangeDates accepted a nil selector")
	}
}

func TestArrangeDatesMatchesArranger(t *testing.T) {
	// The one-shot wrapper is Arranger.Arrange at the same seed, whatever
	// the Arranger's worker count.
	sel, err := NewUniformSelector(50)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, 50)
	in := make([]int, 50)
	for i := range out {
		out[i] = 1
		in[i] = 1
	}
	got, err := ArrangeDates(out, in, sel, 31)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewArranger(sel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Arrange(out, in, 31, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ArrangeDates diverged from Arranger.Arrange at the same seed")
	}
}
