package bandwidth

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestHomogeneous(t *testing.T) {
	p := Homogeneous(5, 3)
	if p.N() != 5 {
		t.Fatalf("N = %d", p.N())
	}
	if p.TotalIn() != 15 || p.TotalOut() != 15 || p.M() != 15 {
		t.Fatalf("totals = %d/%d, m = %d", p.TotalIn(), p.TotalOut(), p.M())
	}
	c, err := p.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Fatalf("ratio = %v", c)
	}
}

func TestMUsesMinimum(t *testing.T) {
	p := Profile{In: []int{1, 2}, Out: []int{4, 4}}
	if p.M() != 3 {
		t.Fatalf("M = %d, want min(3, 8) = 3", p.M())
	}
	q := Profile{In: []int{5, 5}, Out: []int{1, 2}}
	if q.M() != 3 {
		t.Fatalf("M = %d, want min(10, 3) = 3", q.M())
	}
}

func TestRatioErrors(t *testing.T) {
	if _, err := (Profile{In: []int{1}, Out: []int{1, 2}}).Ratio(); err == nil {
		t.Error("accepted length mismatch")
	}
	if _, err := (Profile{In: []int{0}, Out: []int{1}}).Ratio(); err == nil {
		t.Error("accepted zero bandwidth")
	}
	if _, err := (Profile{In: []int{1}, Out: []int{-2}}).Ratio(); err == nil {
		t.Error("accepted negative bandwidth")
	}
}

func TestRatioComputation(t *testing.T) {
	p := Profile{In: []int{2, 6}, Out: []int{4, 2}} // ratios 0.5 and 3
	c, err := p.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	if c != 3 {
		t.Fatalf("C = %v, want 3", c)
	}
}

func TestValidate(t *testing.T) {
	p := Profile{In: []int{2, 6}, Out: []int{4, 2}}
	if err := p.Validate(3); err != nil {
		t.Fatalf("Validate(3): %v", err)
	}
	if err := p.Validate(2); err == nil {
		t.Fatal("Validate(2) accepted C=3 profile")
	}
	if err := p.Validate(0.5); err == nil {
		t.Fatal("accepted C < 1")
	}
}

func TestBimodal(t *testing.T) {
	p, err := Bimodal(10, 3, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.In[0] != 8 || p.In[2] != 8 || p.In[3] != 1 || p.In[9] != 1 {
		t.Fatalf("class layout wrong: %v", p.In)
	}
	if p.TotalOut() != 3*8+7 {
		t.Fatalf("TotalOut = %d", p.TotalOut())
	}
	c, err := p.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Fatalf("bimodal should have C = 1, got %v", c)
	}
}

func TestBimodalValidation(t *testing.T) {
	if _, err := Bimodal(5, 6, 2, 1); err == nil {
		t.Error("accepted rich > n")
	}
	if _, err := Bimodal(5, -1, 2, 1); err == nil {
		t.Error("accepted rich < 0")
	}
	if _, err := Bimodal(5, 2, 0, 1); err == nil {
		t.Error("accepted richB = 0")
	}
	if _, err := Bimodal(5, 2, 2, 0); err == nil {
		t.Error("accepted poorB = 0")
	}
}

func TestZipfRespectsC(t *testing.T) {
	s := rng.New(42)
	for _, c := range []float64{1, 1.5, 2, 4} {
		p, err := Zipf(500, 1.0, 64, c, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(c); err != nil {
			t.Fatalf("C=%v: %v", c, err)
		}
		if p.N() != 500 {
			t.Fatalf("N = %d", p.N())
		}
	}
}

func TestZipfHeterogeneous(t *testing.T) {
	s := rng.New(7)
	p, err := Zipf(2000, 1.0, 64, 1, s)
	if err != nil {
		t.Fatal(err)
	}
	minB, maxB := p.Out[0], p.Out[0]
	for _, b := range p.Out {
		if b < minB {
			minB = b
		}
		if b > maxB {
			maxB = b
		}
	}
	if minB != 1 {
		t.Fatalf("min bandwidth %d, want 1", minB)
	}
	if maxB < 16 {
		t.Fatalf("max bandwidth %d; Zipf should produce some rich nodes", maxB)
	}
}

func TestZipfValidation(t *testing.T) {
	s := rng.New(1)
	if _, err := Zipf(0, 1, 4, 1, s); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := Zipf(4, 1, 0, 1, s); err == nil {
		t.Error("accepted maxB = 0")
	}
	if _, err := Zipf(4, 1, 4, 0.5, s); err == nil {
		t.Error("accepted C < 1")
	}
	if _, err := Zipf(4, -1, 4, 1, s); err == nil {
		t.Error("accepted bad exponent")
	}
}

func TestGeometricShape(t *testing.T) {
	p, err := Geometric(16, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// 8 nodes at 1, 4 at 2, 2 at 4, 1 at 8, final 1 at 16.
	counts := map[int]int{}
	for _, b := range p.Out {
		counts[b]++
	}
	if counts[1] != 8 || counts[2] != 4 || counts[4] != 2 || counts[8] != 1 || counts[16] != 1 {
		t.Fatalf("geometric layout: %v", counts)
	}
	c, err := p.Ratio()
	if err != nil {
		t.Fatal(err)
	}
	if c != 1 {
		t.Fatalf("geometric C = %v, want 1", c)
	}
}

func TestGeometricCap(t *testing.T) {
	p, err := Geometric(100, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range p.Out {
		if b > 4 {
			t.Fatalf("node %d bandwidth %d exceeds cap", i, b)
		}
	}
}

func TestGeometricValidation(t *testing.T) {
	if _, err := Geometric(0, 4); err == nil {
		t.Error("accepted n = 0")
	}
	if _, err := Geometric(4, 0); err == nil {
		t.Error("accepted maxB = 0")
	}
}

func TestProfilesAlwaysValidProperty(t *testing.T) {
	// Property: every generator yields profiles whose observed C validates
	// against itself and whose bandwidths are all positive.
	err := quick.Check(func(seed uint64, nRaw uint8, cRaw uint8) bool {
		n := int(nRaw%200) + 1
		c := 1 + float64(cRaw%40)/10 // 1.0 .. 4.9
		s := rng.New(seed)
		profiles := []Profile{Homogeneous(n, 2)}
		if p, err := Zipf(n, 1.2, 32, c, s); err == nil {
			profiles = append(profiles, p)
		} else {
			return false
		}
		if p, err := Geometric(n, 64); err == nil {
			profiles = append(profiles, p)
		} else {
			return false
		}
		for _, p := range profiles {
			obs, err := p.Ratio()
			if err != nil {
				return false
			}
			if err := p.Validate(obs); err != nil {
				return false
			}
			if p.M() <= 0 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}
