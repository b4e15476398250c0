// Filecast: broadcast a multi-block "movie" to every node using randomized
// linear network coding over the dating service — the rumor mongering
// extension of Section 5. The dating service only decides who talks to
// whom; coding guarantees that almost every received packet is useful, so
// the broadcast finishes close to the information-theoretic bound of B
// rounds at unit bandwidth.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const (
		n         = 200
		blocks    = 16
		blockSize = 256 // bytes; a 4 KiB "movie" split into 16 blocks
	)

	rep, err := repro.Run(repro.MongerConfig{
		N:           n,
		Blocks:      blocks,
		BlockSize:   blockSize,
		Source:      0,
		PayloadSeed: 1234,
	}, repro.WithSeed(99))
	if err != nil {
		log.Fatal(err)
	}
	res := rep.Detail.(repro.MongerResult)

	fmt.Printf("broadcasting %d blocks x %d bytes to %d nodes\n\n", blocks, blockSize, n)
	for round, decoded := range rep.Trajectory {
		if decoded > 0 || round%5 == 4 {
			fmt.Printf("round %3d: %3d/%d nodes fully decoded\n", round+1, decoded, n)
		}
	}
	fmt.Printf("\ncompleted: %v in %d rounds (lower bound: %d rounds)\n",
		rep.Completed, rep.Rounds, blocks)
	fmt.Printf("packets sent: %d, innovative: %d (%.1f%% useful)\n",
		rep.Messages, res.Innovative, 100*float64(res.Innovative)/float64(rep.Messages))
	fmt.Println("\nevery node's decoded content was verified against the source")
}
