package repro_test

import (
	"fmt"

	"repro"
)

// One round of the dating service on a homogeneous network: about 47% of
// the centralized optimum is arranged under uniform selection.
func ExampleNewDatingService() {
	profile := repro.UnitBandwidth(1000)
	sel, _ := repro.Uniform(1000)
	svc, _ := repro.NewDatingService(profile, sel)

	s := repro.NewStream(42)
	res := svc.RunRound(s)

	frac := res.Fraction(svc.M())
	fmt.Println(frac > 0.40 && frac < 0.55)
	// Output: true
}

// The unified runner: one entrypoint for every protocol, a seed instead of
// a stream, and a worker budget that can never change a number — the same
// spec and seed yield the identical report at any WithWorkers value.
func ExampleRun() {
	spec := repro.RumorConfig{N: 1024, Algorithm: repro.Dating}

	serial, _ := repro.Run(spec, repro.WithSeed(7))
	parallel, _ := repro.Run(spec, repro.WithSeed(7), repro.WithWorkers(8))

	fmt.Println(serial.Completed)
	fmt.Println(serial.Rounds == parallel.Rounds && serial.Messages == parallel.Messages)
	// Output:
	// true
	// true
}

// The seeded engine shards a round across worker goroutines, and the worker
// count never changes the arranged dates — it is a pure speed knob.
func ExampleDatingService_RunRoundSeeded() {
	profile := repro.UnitBandwidth(10000)
	sel, _ := repro.Uniform(10000)
	svc, _ := repro.NewDatingService(profile, sel)

	a, _ := svc.RunRoundSeeded(42, 1)
	b, _ := svc.RunRoundSeeded(42, 4)

	frac := a.Fraction(svc.M())
	fmt.Println(len(a.Dates) == len(b.Dates) && a.Dates[0] == b.Dates[0])
	fmt.Println(frac > 0.40 && frac < 0.55)
	// Output:
	// true
	// true
}

// The DHT induces a non-uniform selection distribution (arc lengths), and
// the dating service arranges even MORE dates with it than with uniform
// selection — the paper's Figure 1 result.
func ExampleRingSelection() {
	s := repro.NewStream(3)
	ring, _ := repro.NewRing(1000, s)
	sel, _ := repro.RingSelection(ring)
	svc, _ := repro.NewDatingService(repro.UnitBandwidth(1000), sel)

	total := 0
	for i := 0; i < 20; i++ {
		total += len(svc.RunRound(s).Dates)
	}
	avg := float64(total) / 20 / 1000
	fmt.Println(avg > 0.50) // uniform gives ~0.47; DHT beats it
	// Output: true
}

// Broadcasting a multi-block message with network coding over the dating
// service: every node decodes the full message, verified bit-exactly.
func ExampleRun_monger() {
	rep, _ := repro.Run(repro.MongerConfig{
		N:         50,
		Blocks:    8,
		BlockSize: 32,
	}, repro.WithSeed(5))

	fmt.Println(rep.Completed)
	fmt.Println(rep.Rounds >= 8) // at least one round per block at unit bandwidth
	// Output:
	// true
	// true
}

// ArrangeDates is the raw supply/demand matching interface: here node 0
// offers two units and nodes 2 and 3 each demand one.
func ExampleArrangeDates() {
	sel, _ := repro.Uniform(4)
	s := repro.NewStream(9)

	supply := []int{2, 0, 0, 0}
	demand := []int{0, 0, 1, 1}
	dates, _ := repro.ArrangeDates(supply, demand, sel, s)

	valid := true
	for _, d := range dates {
		if d.Sender != 0 || (d.Receiver != 2 && d.Receiver != 3) {
			valid = false
		}
	}
	fmt.Println(valid)
	// Output: true
}

// An Arranger reuses scratch across rounds, and its worker count never
// changes the arranged dates: randomness is derived per node and per
// rendezvous from the round seed, not per worker.
func ExampleNewArranger() {
	sel, _ := repro.Uniform(1000)
	arr, _ := repro.NewArranger(sel)

	supply := make([]int, 1000)
	demand := make([]int, 1000)
	for i := range supply {
		supply[i] = 1
		demand[i] = 1
	}

	serial, _ := arr.Arrange(supply, demand, 42, 1)
	parallel, _ := arr.Arrange(supply, demand, 42, 8)

	same := len(serial) == len(parallel)
	for i := range serial {
		same = same && serial[i] == parallel[i]
	}
	fmt.Println(same)
	fmt.Println(float64(len(serial))/1000 > 0.40)
	// Output:
	// true
	// true
}
