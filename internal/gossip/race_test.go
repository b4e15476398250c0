//go:build race

package gossip

func init() { raceDetector = true }
