// Quickstart: run a few rounds of the dating service on a homogeneous
// network and watch the arranged fraction hover around the paper's 0.47,
// then spread a rumor through the unified repro.Run entrypoint.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const n = 1000

	// Every node can send one and receive one unit-size message per round.
	profile := repro.UnitBandwidth(n)

	// Nodes address their requests uniformly at random; swap this for
	// repro.RingSelection to run over a DHT instead.
	sel, err := repro.Uniform(n)
	if err != nil {
		log.Fatal(err)
	}

	svc, err := repro.NewDatingService(profile, sel)
	if err != nil {
		log.Fatal(err)
	}

	// A round is a pure function of its seed: here round r of seed 2024.
	fmt.Printf("dating service, n = %d nodes, m = %d possible communications/round\n\n", n, svc.M())
	for round := 1; round <= 5; round++ {
		res, err := svc.RunRoundSeeded(2024+uint64(round), 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: %4d dates arranged (%.1f%% of the centralized optimum)\n",
			round, len(res.Dates), 100*res.Fraction(svc.M()))
	}
	fmt.Println("\nthe paper proves a constant fraction whp; uniform selection gives ~47%")

	// Whole protocols run through one entrypoint: a config spec, a seed,
	// and a worker budget that is a pure speed knob.
	rep, err := repro.Run(repro.RumorConfig{N: n, Algorithm: repro.Dating},
		repro.WithSeed(2024), repro.WithWorkers(4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepro.Run(rumor): informed all %d nodes in %d rounds, %d messages\n",
		n, rep.Rounds, rep.Messages)
}
