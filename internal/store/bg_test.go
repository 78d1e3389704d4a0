package store

import "testing"

func TestBGSize(t *testing.T) {
	cases := []struct {
		backlog, step, max, want int
	}{
		{0, 2048, 16, 1},
		{2048, 2048, 16, 2},
		{1 << 20, 2048, 16, 16}, // clamped
		{5000, 2048, 16, 3},
		{1 << 20, 2048, 1, 1}, // max<=1 disables
		{1 << 20, 0, 16, 16},  // degenerate step
	}
	for _, tc := range cases {
		if got := bgSize(tc.backlog, tc.step, tc.max); got != tc.want {
			t.Errorf("bgSize(%d,%d,%d)=%d, want %d", tc.backlog, tc.step, tc.max, got, tc.want)
		}
	}
}
