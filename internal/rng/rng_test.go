package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestForkReproducible(t *testing.T) {
	p1, p2 := New(7), New(7)
	c1, c2 := p1.Fork(), p2.Fork()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("forked substreams are not reproducible")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	p := New(7)
	kids := p.ForkN(4)
	// Crude independence check: no two children share their first 8 draws.
	first := map[uint64]int{}
	for i, k := range kids {
		v := k.Uint64()
		if j, dup := first[v]; dup {
			t.Fatalf("children %d and %d share first draw", i, j)
		}
		first[v] = i
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformMoments(t *testing.T) {
	s := New(3)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v", mean)
	}
	if math.Abs(varr-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v", varr)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(varr-1) > 0.02 {
		t.Errorf("normal variance = %v", varr)
	}
}

func TestNormalAt(t *testing.T) {
	s := New(5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.NormalAt(0.3, 0.03)
	}
	if mean := sum / n; math.Abs(mean-0.3) > 0.002 {
		t.Errorf("NormalAt mean = %v", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(17)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[s.Intn(7)]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn digit %d count %d outside [9000,11000]", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIsotropicDirectionUnit(t *testing.T) {
	s := New(23)
	var zsum float64
	for i := 0; i < 50000; i++ {
		d := s.IsotropicDirection()
		if math.Abs(d.Norm()-1) > 1e-9 {
			t.Fatalf("direction not unit: %v", d)
		}
		zsum += d.Z
	}
	if math.Abs(zsum/50000) > 0.01 {
		t.Errorf("isotropic z mean = %v, want ~0", zsum/50000)
	}
}

func TestDownwardIsotropic(t *testing.T) {
	s := New(29)
	for i := 0; i < 10000; i++ {
		if d := s.DownwardIsotropic(); d.Z > 0 {
			t.Fatalf("downward direction has positive Z: %v", d)
		}
	}
}

func TestCosineLawDirection(t *testing.T) {
	s := New(31)
	var cossum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := s.CosineLawDirection()
		if math.Abs(d.Norm()-1) > 1e-9 {
			t.Fatalf("not unit: %v", d)
		}
		if d.Z > 0 {
			t.Fatalf("cosine-law direction points up: %v", d)
		}
		cossum += -d.Z
	}
	// E[cosθ] under pdf 2cosθsinθ is 2/3.
	if mean := cossum / n; math.Abs(mean-2.0/3) > 0.005 {
		t.Errorf("cosine-law E[cosθ] = %v, want 2/3", mean)
	}
}

func TestPointSamplers(t *testing.T) {
	s := New(37)
	b := boxForTest()
	for i := 0; i < 10000; i++ {
		if p := s.PointInBox(b); !b.Contains(p) {
			t.Fatalf("PointInBox escaped: %v", p)
		}
		p := s.PointOnTopFace(b)
		if p.Z != b.Max.Z || p.X < b.Min.X || p.X >= b.Max.X {
			t.Fatalf("PointOnTopFace wrong: %v", p)
		}
	}
}
