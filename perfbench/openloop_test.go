package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the loop sleeps or a send stalls.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// A stall in one send is charged to every later event through latency
// measured from its scheduled time: the loop does not wait for the
// program, so events due during the stall go out late, all at once.
func TestOpenLoopChargesStallToLaterEvents(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	due := make([]time.Duration, 10)
	for i := range due {
		due[i] = time.Duration(i) * 10 * time.Millisecond
	}
	ol := &openLoop{clk: clk, start: clk.now, due: due}
	sentAt := make([]time.Time, len(due))
	late := ol.run(func(i int) {
		sentAt[i] = clk.Now()
		if i == 3 {
			clk.Sleep(100 * time.Millisecond) // the program blocks the producer
		}
	})
	if len(late.vals) != len(due) {
		t.Fatalf("sent %d of %d", len(late.vals), len(due))
	}
	for i := range due {
		// The event becomes visible the moment it is sent; its latency
		// counts from when it was due.
		lat := sentAt[i].Sub(ol.sched(i))
		want := time.Duration(0)
		if i > 3 {
			// Everything due before the stall ended (130ms) goes out at 130ms.
			want = 130*time.Millisecond - due[i]
		}
		if lat != want {
			t.Errorf("event %d: latency from schedule %v, want %v", i, lat, want)
		}
		if got := late.vals[i]; got != ms(want) {
			t.Errorf("event %d: generator lateness %vms, want %vms", i, got, ms(want))
		}
	}
	if sentAt[9].Sub(sentAt[4]) != 0 {
		t.Errorf("events due during the stall were spread out instead of sent at once")
	}
}

func TestOpenLoopSleepsUntilDue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	ol := &openLoop{clk: clk, start: clk.now.Add(5 * time.Millisecond), due: []time.Duration{0, 20 * time.Millisecond}}
	var at []time.Time
	ol.run(func(int) { at = append(at, clk.Now()) })
	if at[0] != ol.sched(0) || at[1] != ol.sched(1) {
		t.Fatalf("sent at %v, want %v and %v", at, ol.sched(0), ol.sched(1))
	}
}
