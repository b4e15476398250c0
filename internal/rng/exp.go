package rng

import "math"

// The exponential ziggurat of Marsaglia & Tsang ("The Ziggurat Method for
// Generating Random Variables", 2000) with 256 layers of equal area expV
// under e^-x. Layer 0 is the base: the rectangle of width expR under
// e^-expR and the tail beyond it. Layer i ≥ 1 is a rectangle from 0 to x_i,
// with x_255 = expR and the x_i shrinking towards the top; its part left of
// x_{i-1} lies under the curve, and the rest holds a wedge of it.
const (
	expR = 7.69711747013104972
	expV = 3.9496598225815571993e-3
)

// The tables, in units of the 53-bit uniform j of a draw: expW[i] scales j
// to x in layer i, a draw with j < expK[i] lies under the curve outright,
// and expF[i] = e^-x_i is the density at the layer's right edge (expF[0] =
// 1 at the top). They are built once, by init.
var (
	expK [256]uint64
	expW [256]float64
	expF [256]float64
)

func init() {
	const m = 1 << 53
	x := expR
	q := expV / math.Exp(-x) // the base layer's width, tail included
	expK[0] = uint64(x / q * m)
	expW[0] = q / m
	expW[255] = x / m
	expF[0] = 1
	expF[255] = math.Exp(-x)
	for i := 254; i >= 1; i-- {
		prev := x
		x = -math.Log(expV/x + math.Exp(-x))
		expK[i+1] = uint64(x / prev * m)
		expW[i] = x / m
		expF[i] = math.Exp(-x)
	}
	// expK[1] stays 0: the top layer is all wedge.
}

// ExpFloat64 returns an exponentially distributed value with rate 1, drawn
// with the 256-layer ziggurat above. About 98.9 % of draws take one Uint64:
// its low 8 bits pick the layer, its top 53 bits give the uniform j, and
// x = j·expW[layer] is returned when j < expK[layer]. The rest take more
// outputs: a base-layer draw beyond expR returns expR - log(U) from a fresh
// uniform U (the tail is memoryless), and a wedge draw is kept only if a
// fresh uniform height under the layer falls below e^-x, and otherwise
// starts over. The number of outputs a draw consumes therefore varies.
func (s *Stream) ExpFloat64() float64 {
	for {
		u := s.src.Uint64()
		i := u & 0xFF
		j := u >> 11
		x := float64(j) * expW[i]
		if j < expK[i] {
			return x
		}
		if i == 0 {
			return expR - math.Log(s.Float64Open())
		}
		// The conversion rounds the product, so no platform fuses the
		// multiply-add and the accept decision is the same everywhere.
		if expF[i]+float64(s.Float64()*(expF[i-1]-expF[i])) < math.Exp(-x) {
			return x
		}
	}
}
