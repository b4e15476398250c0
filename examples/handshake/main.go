// Handshake: the dating service as an explicit message protocol. Each
// dating round costs three network rounds — scatter tiny offer/request
// messages, rendezvous answers carrying one address each, then the actual
// payloads — which is exactly the overhead model of the paper ("these will
// be only small messages — typically one IP address in each message").
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	const n = 500
	const rounds = 10

	rep, err := repro.Run(repro.HandshakeConfig{
		Profile: repro.UnitBandwidth(n),
		Rounds:  rounds,
	}, repro.WithSeed(17))
	if err != nil {
		log.Fatal(err)
	}

	for r, dates := range rep.Sent {
		fmt.Printf("dating round %2d: %3d dates\n", r+1, dates)
	}

	totalDates := int64(rep.Trajectory[len(rep.Trajectory)-1])
	control := rep.Messages - totalDates
	res := rep.Detail.(repro.LiveResult)
	fmt.Printf("\nover %d dating rounds (%d network rounds):\n", rounds, res.Traffic.Rounds)
	fmt.Printf("  payload messages: %d\n", totalDates)
	fmt.Printf("  control messages: %d (%.1f per payload, all address-sized)\n",
		control, float64(control)/float64(totalDates))
	fmt.Printf("  most payloads one peer received in a dating round: %d (its bandwidth is 1)\n", res.MaxInPayloads)
	fmt.Println("\nwhen the payload is a movie chunk, this overhead is negligible")
}
