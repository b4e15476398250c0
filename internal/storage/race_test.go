//go:build race

package storage

func init() { raceDetector = true }
