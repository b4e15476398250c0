// Package coding implements the Section 5 extension of the paper: rumor
// mongering — broadcasting a large message split into blocks — using
// randomized linear network coding [HeS+03, DMC06] over the dating service.
//
// The field is GF(2^8) with the standard primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11D). Nodes store the coded packets they have
// received, recode (send fresh random combinations of their span) on every
// arranged date, and decode by incremental Gaussian elimination. Network
// coding solves the paper's "most challenging problem": ensuring that every
// part of the message is useful to its receiver without any coordination.
package coding

// gfPoly is the primitive polynomial for GF(2^8).
const gfPoly = 0x11d

var (
	gfExp [510]byte // gfExp[i] = g^i, doubled so Mul can skip a mod
	gfLog [256]byte // gfLog[x] = discrete log of x, undefined for 0
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfExp[i+255] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
}

// Inv returns the multiplicative inverse of a. It panics on a == 0, which
// has no inverse; callers must guard.
func Inv(a byte) byte {
	if a == 0 {
		panic("coding: inverse of zero")
	}
	return gfExp[255-int(gfLog[a])]
}

// mulSlice computes dst[i] ^= c * src[i] for all i: the row operation of
// Gaussian elimination and the inner loop of recoding.
func mulSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range dst {
			dst[i] ^= src[i]
		}
		return
	}
	logC := int(gfLog[c])
	for i := range dst {
		if s := src[i]; s != 0 {
			dst[i] ^= gfExp[logC+int(gfLog[s])]
		}
	}
}

// scaleSlice computes dst[i] = c * dst[i] for all i.
func scaleSlice(dst []byte, c byte) {
	if c == 1 {
		return
	}
	if c == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	logC := int(gfLog[c])
	for i := range dst {
		if d := dst[i]; d != 0 {
			dst[i] = gfExp[logC+int(gfLog[d])]
		}
	}
}
