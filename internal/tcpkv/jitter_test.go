package tcpkv

import (
	"math/rand"
	"testing"
	"time"
)

// TestJitteredBackoffDeterministic pins the decorrelated-jitter schedule:
// a seeded source reproduces the exact delay sequence, every delay stays
// within [base, max], and the schedule actually spreads instead of
// doubling in lock-step (the thundering-herd bug this replaced).
func TestJitteredBackoffDeterministic(t *testing.T) {
	const base, max = 2 * time.Millisecond, 50 * time.Millisecond
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		intn := func(n int64) int64 { return rng.Int63n(n) }
		out := make([]time.Duration, 0, 12)
		d := base
		for i := 0; i < 12; i++ {
			d = jitteredBackoff(d, base, max, intn)
			out = append(out, d)
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < base || a[i] > max {
			t.Fatalf("step %d delay %v outside [%v, %v]", i, a[i], base, max)
		}
	}
	distinct := make(map[time.Duration]bool)
	for _, d := range a {
		distinct[d] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("schedule barely varies: %v", a)
	}
	c := seq(7)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestJitteredBackoffBounds pins the degenerate cases: no base keeps the
// previous delay (jitter disabled), and a huge previous delay still draws
// within [base, max] — the cap clamps, never the other way around.
func TestJitteredBackoffBounds(t *testing.T) {
	if d := jitteredBackoff(9*time.Millisecond, 0, 0, nil); d != 9*time.Millisecond {
		t.Fatalf("zero base must keep prev, got %v", d)
	}
	rng := rand.New(rand.NewSource(1))
	intn := func(n int64) int64 { return rng.Int63n(n) }
	for i := 0; i < 64; i++ {
		d := jitteredBackoff(time.Second, 2*time.Millisecond, 10*time.Millisecond, intn)
		if d < 2*time.Millisecond || d > 10*time.Millisecond {
			t.Fatalf("draw %v outside [base, max]", d)
		}
	}
}
