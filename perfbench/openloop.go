package main

import "time"

// clock is the open loop's view of time; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop sends item i at start+due[i] whatever happened to earlier
// items: independent producers (workflow engines) do not wait for the
// monitoring system. When the loop falls behind it sends immediately, so
// a stall is charged to every later item through latencies measured from
// its scheduled time (sched), never from when it was actually sent.
type openLoop struct {
	clk   clock
	start time.Time
	due   []time.Duration
}

// sched returns item i's scheduled send time.
func (o *openLoop) sched(i int) time.Time { return o.start.Add(o.due[i]) }

// run calls send for every item in order, each no earlier than its
// scheduled time. It returns how late each send ran, in milliseconds.
func (o *openLoop) run(send func(i int)) (late dist) {
	late.vals = make([]float64, 0, len(o.due))
	for i := range o.due {
		at := o.sched(i)
		now := o.clk.Now()
		if d := at.Sub(now); d > 0 {
			o.clk.Sleep(d)
			now = o.clk.Now()
		}
		late.add(ms(now.Sub(at)))
		send(i)
	}
	return late
}
