// Package ycsb generates YCSB-style workloads (Cooper et al., SoCC'10) for
// the benchmark harness: the paper evaluates with four mixes following a
// long-tailed Zipfian request distribution (§5.2):
//
//	YCSB-C      100% GET          (read-only)
//	YCSB-B      95% GET / 5% PUT  (read-intensive)
//	YCSB-A      50% GET / 50% PUT (write-intensive)
//	Update-only 100% PUT
//
// The Zipfian key chooser is the standard YCSB generator: Gray et al.'s
// incremental algorithm with the usual scrambling hash so popular keys are
// spread across the key space.
package ycsb

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Op is a workload operation kind.
type Op int

// Operation kinds.
const (
	OpGet Op = iota
	OpPut
)

// Mix is an operation mix.
type Mix struct {
	Name    string
	GetFrac float64
}

// The paper's four workloads.
var (
	WorkloadC          = Mix{Name: "YCSB-C (read-only)", GetFrac: 1.0}
	WorkloadB          = Mix{Name: "YCSB-B (read-intensive)", GetFrac: 0.95}
	WorkloadA          = Mix{Name: "YCSB-A (write-intensive)", GetFrac: 0.50}
	WorkloadUpdateOnly = Mix{Name: "Update-only", GetFrac: 0.0}
)

// Workloads lists the paper's mixes in Figure 9 order (a-d).
func Workloads() []Mix {
	return []Mix{WorkloadC, WorkloadB, WorkloadA, WorkloadUpdateOnly}
}

// ZipfianConstant is YCSB's default skew.
const ZipfianConstant = 0.99

// Zipfian draws items in [0, n) with a Zipfian distribution using Gray et
// al.'s method ("Quickly generating billion-record synthetic databases",
// SIGMOD'94), as in the YCSB core generator.
type Zipfian struct {
	items          uint64
	theta          float64
	zeta2, zetaN   float64
	alpha, eta     float64
	scrambled      bool
	scrambledItems uint64
}

// NewZipfian returns a plain Zipfian generator over [0, n).
func NewZipfian(n uint64) *Zipfian {
	z := &Zipfian{items: n, theta: ZipfianConstant}
	z.zeta2 = zetaStatic(2, z.theta)
	z.zetaN = zetaStatic(n, z.theta)
	z.alpha = 1.0 / (1.0 - z.theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-z.theta)) / (1 - z.zeta2/z.zetaN)
	return z
}

// NewScrambledZipfian spreads the Zipfian head across the key space with a
// 64-bit mix, as YCSB's ScrambledZipfianGenerator does.
func NewScrambledZipfian(n uint64) *Zipfian {
	z := NewZipfian(n)
	z.scrambled = true
	z.scrambledItems = n
	return z
}

func zetaStatic(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next item.
func (z *Zipfian) Next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetaN
	var v uint64
	switch {
	case uz < 1.0:
		v = 0
	case uz < 1.0+math.Pow(0.5, z.theta):
		v = 1
	default:
		v = uint64(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if v >= z.items {
		v = z.items - 1
	}
	if z.scrambled {
		return mix64(v) % z.scrambledItems
	}
	return v
}

// mix64 is the SplitMix64 finalizer, a strong 64-bit mixing function.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Latest draws items skewed toward the most recently inserted, like
// YCSB's SkewedLatestGenerator: the draw is n-1-Zipfian(n), so item n-1
// (the newest) is the most popular. Call Extend as new items are inserted.
type Latest struct {
	n uint64
	z *Zipfian
}

// NewLatest returns a latest-skewed chooser over [0, n).
func NewLatest(n uint64) *Latest {
	return &Latest{n: n, z: NewZipfian(n)}
}

// Extend grows the item space to n (monotonic).
func (l *Latest) Extend(n uint64) {
	if n > l.n {
		l.n = n
		l.z = NewZipfian(n)
	}
}

// Next draws the next item.
func (l *Latest) Next(rng *rand.Rand) uint64 {
	return l.n - 1 - l.z.Next(rng)
}

// Chooser selects keys.
type Chooser interface {
	Next(rng *rand.Rand) uint64
}

// Key formats key index i the YCSB way, padded to the given length.
func Key(i uint64, keyLen int) []byte {
	s := fmt.Sprintf("user%d", i)
	for len(s) < keyLen {
		s += "0"
	}
	return []byte(s[:keyLen])
}

// Generator produces a stream of operations for one client.
type Generator struct {
	Mix     Mix
	Keys    Chooser
	KeyLen  int
	ValLen  int
	rng     *rand.Rand
	valSeed byte
}

// NewGenerator builds a generator with its own deterministic PRNG stream.
func NewGenerator(mix Mix, nkeys uint64, keyLen, valLen int, seed uint64) *Generator {
	return &Generator{
		Mix:    mix,
		Keys:   NewScrambledZipfian(nkeys),
		KeyLen: keyLen,
		ValLen: valLen,
		rng:    rand.New(rand.NewPCG(seed, 0xfeed)),
	}
}

// Next returns the next operation, its key, and (for puts) a fresh value.
func (g *Generator) Next() (Op, []byte, []byte) {
	key := Key(g.Keys.Next(g.rng), g.KeyLen)
	if g.rng.Float64() < g.Mix.GetFrac {
		return OpGet, key, nil
	}
	g.valSeed++
	val := make([]byte, g.ValLen)
	for i := range val {
		val[i] = g.valSeed + byte(i)
	}
	return OpPut, key, val
}
