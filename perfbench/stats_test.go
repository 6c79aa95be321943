package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	d := &dist{}
	for _, v := range []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6} {
		d.add(v)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		got, n := d.pct(c.p)
		if got != c.want || n != 10 {
			t.Errorf("p%v = %v over %d samples, want %v over 10", c.p, got, n, c.want)
		}
	}
	if got, n := (&dist{}).pct(50); got != 0 || n != 0 {
		t.Errorf("empty distribution: p50 = %v over %d samples, want 0 over 0", got, n)
	}
	one := &dist{vals: []float64{42}}
	if got, n := one.pct(99); got != 42 || n != 1 {
		t.Errorf("one sample: p99 = %v over %d, want 42 over 1", got, n)
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{3, 1, 2}
	if m := median(in); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("median reordered its input: %v", in)
	}
}
