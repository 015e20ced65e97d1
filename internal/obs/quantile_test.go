package obs

import (
	"testing"
	"time"
)

func TestQuantileEdges(t *testing.T) {
	cases := []struct {
		name   string
		sorted []float64
		q      float64
		want   float64
	}{
		{"empty", nil, 0.99, 0},
		{"empty p50", []float64{}, 0.5, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 0.5, 7},
		{"single p99", []float64{7}, 0.99, 7},
		{"single p100", []float64{7}, 1, 7},
		{"two p50", []float64{1, 2}, 0.5, 1},
		{"two p99", []float64{1, 2}, 0.99, 2},
		{"ten p99 picks max", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
		{"ten p50", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5, 5},
		{"hundred p99", seq(100), 0.99, 98},
		{"hundred p95", seq(100), 0.95, 94},
		{"q0 picks min", []float64{3, 9, 27}, 0, 3},
		{"q1 picks max", []float64{3, 9, 27}, 1, 27},
		{"q beyond 1 clamps", []float64{3, 9, 27}, 2, 27},
		{"q below 0 clamps", []float64{3, 9, 27}, -1, 3},
	}
	for _, tc := range cases {
		if got := Quantile(tc.sorted, tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v, %g) = %g, want %g", tc.name, tc.sorted, tc.q, got, tc.want)
		}
	}
}

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestQuantileDur(t *testing.T) {
	if got := QuantileDur(nil, 0.99); got != 0 {
		t.Fatalf("empty QuantileDur = %v", got)
	}
	one := []time.Duration{time.Second}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := QuantileDur(one, q); got != time.Second {
			t.Fatalf("QuantileDur(n=1, q=%g) = %v", q, got)
		}
	}
	ds := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 100 * time.Millisecond}
	if got := QuantileDur(ds, 0.99); got != 100*time.Millisecond {
		t.Fatalf("p99 = %v, want 100ms", got)
	}
	if got := QuantileDur(ds, 0.5); got != 2*time.Millisecond {
		t.Fatalf("p50 = %v, want 2ms", got)
	}
}

// TestPercentileEdgeCases pins QuantileDur's nearest-rank edge cases on
// millisecond samples: empty, single-sample and tiny inputs, and q at 0
// and 1.
func TestPercentileEdgeCases(t *testing.T) {
	ms := func(vals ...int) []time.Duration {
		out := make([]time.Duration, len(vals))
		for i, v := range vals {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty", nil, 0.5, 0},
		{"single p50", ms(7), 0.5, 7 * time.Millisecond},
		{"single p99", ms(7), 0.99, 7 * time.Millisecond},
		{"single p0", ms(7), 0, 7 * time.Millisecond},
		// Tiny samples: nearest-rank must clamp, not index out of range,
		// and q=0.99 on n=2 picks the max.
		{"two p99", ms(1, 9), 0.99, 9 * time.Millisecond},
		{"two p50", ms(1, 9), 0.5, 1 * time.Millisecond},
		{"three p99", ms(1, 5, 9), 0.99, 9 * time.Millisecond},
		{"q=1 max", ms(1, 5, 9), 1.0, 9 * time.Millisecond},
		{"q=0 min", ms(1, 5, 9), 0, 1 * time.Millisecond},
		{"ten p90", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.9, 9 * time.Millisecond},
		{"ten p50", ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 0.5, 5 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := QuantileDur(tc.sorted, tc.q); got != tc.want {
				t.Fatalf("QuantileDur(%v, %g) = %v, want %v", tc.sorted, tc.q, got, tc.want)
			}
		})
	}
}
