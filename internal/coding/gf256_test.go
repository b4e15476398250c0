package coding

import (
	"testing"
	"testing/quick"
)

// add returns a + b in GF(2^8) (also subtraction: the field has
// characteristic 2).
func add(a, b byte) byte { return a ^ b }

// mul returns a * b in GF(2^8), read off the log and exp tables that
// Inv and MulAddSlice use.
func mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

func TestAddIsXor(t *testing.T) {
	if add(0x53, 0xCA) != 0x53^0xCA {
		t.Fatal("Add is not xor")
	}
	if add(7, 7) != 0 {
		t.Fatal("x + x must be 0 in characteristic 2")
	}
}

func TestMulBasics(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{0, 5, 0},
		{5, 0, 0},
		{1, 123, 123},
		{123, 1, 123},
		{2, 2, 4},
		{0x80, 2, 0x1d}, // overflow reduces by the primitive polynomial
	}
	for _, c := range cases {
		if got := mul(c.a, c.b); got != c.want {
			t.Errorf("mul(%#x, %#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestMulMatchesSchoolbook(t *testing.T) {
	// Carry-less multiply then reduce by the polynomial: reference
	// implementation to validate the log/exp tables exhaustively.
	ref := func(a, b byte) byte {
		var acc uint16
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				acc ^= uint16(a) << i
			}
		}
		for i := 15; i >= 8; i-- {
			if acc&(1<<i) != 0 {
				acc ^= gfPoly << (i - 8)
			}
		}
		return byte(acc)
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if mul(byte(a), byte(b)) != ref(byte(a), byte(b)) {
				t.Fatalf("mul(%d, %d) disagrees with schoolbook", a, b)
			}
		}
	}
}

func TestFieldAxiomsProperty(t *testing.T) {
	// Associativity, commutativity, distributivity via testing/quick.
	if err := quick.Check(func(a, b, c byte) bool {
		return mul(a, mul(b, c)) == mul(mul(a, b), c)
	}, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	if err := quick.Check(func(a, b byte) bool {
		return mul(a, b) == mul(b, a)
	}, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	if err := quick.Check(func(a, b, c byte) bool {
		return mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
	}, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestInverses(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if mul(byte(a), inv) != 1 {
			t.Fatalf("%d * Inv(%d) = %d", a, a, mul(byte(a), inv))
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestMulSlice(t *testing.T) {
	dst := []byte{1, 2, 3}
	src := []byte{4, 5, 6}
	want := make([]byte, 3)
	for i := range want {
		want[i] = add(dst[i], mul(7, src[i]))
	}
	mulSlice(dst, src, 7)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("mulSlice[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	// c = 0 is a no-op; c = 1 is xor.
	dst2 := []byte{9, 9}
	mulSlice(dst2, []byte{1, 2}, 0)
	if dst2[0] != 9 || dst2[1] != 9 {
		t.Fatal("mulSlice with c=0 modified dst")
	}
	mulSlice(dst2, []byte{1, 2}, 1)
	if dst2[0] != 8 || dst2[1] != 11 {
		t.Fatalf("mulSlice with c=1: %v", dst2)
	}
}

func TestScaleSlice(t *testing.T) {
	dst := []byte{3, 0, 250}
	want := []byte{mul(3, 5), 0, mul(250, 5)}
	scaleSlice(dst, 5)
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("scaleSlice[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	scaleSlice(dst, 1) // identity
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatal("scaleSlice with c=1 changed values")
		}
	}
	scaleSlice(dst, 0)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("scaleSlice with c=0 did not zero")
		}
	}
}

func BenchmarkGF256Mul(b *testing.B) {
	var acc byte
	for i := 0; i < b.N; i++ {
		acc ^= mul(byte(i), byte(i>>8))
	}
	if acc == 1 {
		b.Log(acc) // defeat dead-code elimination
	}
}
