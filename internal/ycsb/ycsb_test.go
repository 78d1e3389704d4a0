package ycsb

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestZipfianRange(t *testing.T) {
	z := NewZipfian(1000)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		v := z.Next(rng)
		if v >= 1000 {
			t.Fatalf("draw %d out of range", v)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	// With theta=0.99 over 1000 items, the most popular item should take
	// a few percent of the mass and the top-10 a large share.
	z := NewZipfian(1000)
	rng := rand.New(rand.NewPCG(3, 4))
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next(rng)]++
	}
	if counts[0] < draws/20 {
		t.Fatalf("head item has %d draws; distribution not skewed", counts[0])
	}
	top10 := 0
	for i := 0; i < 10; i++ {
		top10 += counts[i]
	}
	if float64(top10)/draws < 0.30 {
		t.Fatalf("top-10 share = %.2f, want >= 0.30", float64(top10)/draws)
	}
	// Monotonic-ish decay between head and mid-range.
	if counts[0] < counts[100] {
		t.Fatal("rank 0 less popular than rank 100")
	}
}

func TestScrambledZipfianSpreadsHead(t *testing.T) {
	z := NewScrambledZipfian(1000)
	rng := rand.New(rand.NewPCG(5, 6))
	counts := make(map[uint64]int)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Next(rng)]++
	}
	// Still skewed: some key should dominate...
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if max < draws/20 {
		t.Fatalf("max key has %d draws; scrambling destroyed the skew", max)
	}
	// ...but the hot key need not be key 0 (it is spread by the hash).
	if counts[0] == max {
		t.Log("hot key happens to be 0; acceptable but unusual")
	}
}

func TestZipfianDeterministicPerSeed(t *testing.T) {
	draw := func(seed uint64) []uint64 {
		z := NewScrambledZipfian(500)
		rng := rand.New(rand.NewPCG(seed, 0))
		out := make([]uint64, 100)
		for i := range out {
			out[i] = z.Next(rng)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different stream")
		}
	}
}

func TestLatestSkewsTowardNewest(t *testing.T) {
	l := NewLatest(1000)
	rng := rand.New(rand.NewPCG(9, 9))
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := l.Next(rng)
		if v >= 1000 {
			t.Fatalf("draw %d out of range", v)
		}
		counts[v]++
	}
	if counts[999] < draws/20 {
		t.Fatalf("newest item drew %d; not skewed toward latest", counts[999])
	}
	if counts[999] < counts[0] {
		t.Fatal("oldest more popular than newest")
	}
	// Extending shifts the hot spot.
	l.Extend(2000)
	hot := 0
	for i := 0; i < draws; i++ {
		if l.Next(rng) >= 1000 {
			hot++
		}
	}
	if hot < draws/2 {
		t.Fatalf("after Extend only %d/%d draws in the new range", hot, draws)
	}
}

func TestKeyFormat(t *testing.T) {
	k := Key(42, 32)
	if len(k) != 32 {
		t.Fatalf("key length %d", len(k))
	}
	if string(k[:6]) != "user42" {
		t.Fatalf("key prefix %q", k[:6])
	}
	f := func(i uint32) bool { return len(Key(uint64(i), 32)) == 32 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorMixRatios(t *testing.T) {
	for _, mix := range Workloads() {
		g := NewGenerator(mix, 1000, 32, 128, 9)
		gets := 0
		const n = 20000
		for i := 0; i < n; i++ {
			op, key, val := g.Next()
			if len(key) != 32 {
				t.Fatalf("bad key length %d", len(key))
			}
			if op == OpGet {
				gets++
				if val != nil {
					t.Fatal("GET carries a value")
				}
			} else if len(val) != 128 {
				t.Fatalf("bad value length %d", len(val))
			}
		}
		got := float64(gets) / n
		if math.Abs(got-mix.GetFrac) > 0.02 {
			t.Fatalf("%s: get fraction %.3f, want %.2f", mix.Name, got, mix.GetFrac)
		}
	}
}

func TestWorkloadsOrder(t *testing.T) {
	w := Workloads()
	if len(w) != 4 || w[0].GetFrac != 1 || w[3].GetFrac != 0 {
		t.Fatalf("unexpected workload list: %+v", w)
	}
}
