// Package sim is the experiment harness: each experiment of the registry
// (Registry, registry.go) regenerates one figure or extension of the paper
// as one stats.Table, a pure function of (scale, seed) in the shape of the
// paper's plots, and the claims table (claims.go) states what each table
// must show: its claims are checked on the numbers the table's cells were
// formatted from.
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

// figure1Sizes returns the n values, the uniform rows' round count at each
// n, and the number of overlays generated per n for Figure 1.
func figure1Sizes(s Scale) ([]int, func(n int) int, int) {
	ns, small, large, dhtCount := []int{10, 100, 1000, 10000}, 300, 40, 12
	if s == ScalePaper {
		ns, small, large, dhtCount = []int{10, 100, 1000, 10000, 100000}, 10000, 1000, 200
	}
	return ns, func(n int) int {
		if n >= 10000 {
			return large
		}
		return small
	}, dhtCount
}

// figure2Sizes returns the n values and repetition counts for Figure 2.
func figure2Sizes(s Scale) ([]int, func(n int) int) {
	if s == ScalePaper {
		return []int{10, 100, 1000, 10000, 100000}, func(n int) int {
			if n >= 10000 {
				return 1000
			}
			return 10000
		}
	}
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
