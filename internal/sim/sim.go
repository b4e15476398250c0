// Package sim is the experiment harness: each Run* function regenerates one
// figure or experiment of the registry (Registry, registry.go), returning
// both structured results (for tests to assert on) and a rendered table in
// the same shape as the paper's plots.
//
// Every experiment takes an explicit Scale. ScalePaper matches the paper's
// parameters (10^4 repetitions, n up to 10^5) and is meant for hetsim;
// ScaleQuick shrinks repetitions and the largest n so the full suite runs in
// seconds while preserving every qualitative conclusion.
package sim

import "fmt"

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleQuick is reduced sizing for tests and `go test -bench`.
	ScaleQuick Scale = iota
	// ScalePaper is the sizing reported in the paper.
	ScalePaper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScalePaper:
		return "paper"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale maps a name to a Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return ScaleQuick, nil
	case "paper":
		return ScalePaper, nil
	}
	return 0, fmt.Errorf("sim: unknown scale %q (want quick or paper)", name)
}

// figure1Sizes returns the n values and per-n round counts for Figure 1.
func figure1Sizes(s Scale) (ns []int, rounds func(n int) int, dhtCount int) {
	switch s {
	case ScalePaper:
		return []int{10, 100, 1000, 10000, 100000}, func(n int) int {
			if n >= 10000 {
				return 1000
			}
			return 10000
		}, 200
	default:
		return []int{10, 100, 1000, 10000}, func(n int) int {
			if n >= 10000 {
				return 40
			}
			return 300
		}, 12
	}
}

// figure2Sizes returns the n values and repetition counts for Figure 2.
func figure2Sizes(s Scale) (ns []int, reps func(n int) int) {
	switch s {
	case ScalePaper:
		return []int{10, 100, 1000, 10000, 100000}, func(n int) int {
			if n >= 10000 {
				return 1000
			}
			return 10000
		}
	default:
		return []int{10, 100, 1000, 10000}, func(n int) int {
			switch {
			case n >= 10000:
				return 8
			case n >= 1000:
				return 30
			default:
				return 100
			}
		}
	}
}
