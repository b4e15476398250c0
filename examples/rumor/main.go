// Rumor spreading on a heterogeneous network: a Zipf bandwidth profile with
// nodes from 1 to 32 units, spread through the unified repro.Run entrypoint,
// then the informed count of every round printed from the report's
// trajectory. Demonstrates the paper's Theorem 4: completion in O(log n)
// rounds while never exceeding anyone's bandwidth.
package main

import (
	"fmt"
	"log"
	"strings"

	"repro"
)

func main() {
	const n = 2000
	const seed = 7

	// Heterogeneous capabilities: Zipf-distributed bandwidths, with each
	// node's in/out ratio bounded by C = 2 as the paper's model requires.
	profile, err := repro.ZipfBandwidth(n, 1.0, 32, 2, repro.NewStream(seed))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("n = %d nodes, Bout = %d, Bin = %d, m = %d\n\n",
		n, profile.TotalOut(), profile.TotalIn(), profile.M())

	rep, err := repro.Run(repro.RumorConfig{
		Algorithm: repro.Dating,
		Profile:   profile,
		Source:    0,
	},
		repro.WithSeed(seed),
		repro.WithWorkers(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	for i, informed := range rep.Trajectory {
		bar := strings.Repeat("#", informed*50/n)
		fmt.Printf("round %2d: %5d informed |%-50s|\n", i+1, informed, bar)
	}

	fmt.Printf("\ncompleted: %v in %d rounds (log2 n = 11)\n", rep.Completed, rep.Rounds)
	fmt.Printf("worst per-round loads: in %d, out %d — never above the profile\n",
		rep.MaxInLoad, rep.MaxOutLoad)
}
