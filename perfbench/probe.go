package main

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bp"
	"repro/internal/eventlog"
	"repro/internal/loader"
	"repro/internal/schema"
)

// probe instruments one pass of an input through the program, using only
// hooks the program already exposes: it is the loader's Tap (every raw
// line, before parse) and its Views observer (every applied event, after
// the epoch publish, so the event is visible to snapshot readers).
type probe struct {
	in     *input
	traced bool
	inner  loader.ViewObserver // the real *views.Views
	log    *eventlog.Log       // the Tap's event log, when the workload has one

	// sched returns line i's send time in unix ns: its scheduled time on
	// the open loops, the moment the Tap saw it on the closed loop.
	sched func(i int) int64

	visibleAt []atomic.Int64 // unix ns each line became visible; 0 = not yet
	nVisible  atomic.Int64
	lastVis   atomic.Int64

	// Tap state, owned by the loader's single producer goroutine.
	tapNext    int
	tapAt      []int64
	tapSkipped int // lines the Tap never saw (lost before the loader)
	tapErrs    int // lines that reached the Tap altered
	appStart   []int64
	appEnd     []int64

	// Producer-side timestamps of the traced run, owned by the generator.
	pubStart []int64
	pubEnd   []int64

	mu         sync.Mutex // guards everything below
	m          *matcher
	batches    int
	events     int
	viewNS     int64
	viewSpans  [][2]int64
	visibleWFs []string
}

func newProbe(in *input, m *matcher, traced bool) *probe {
	n := len(in.lines)
	p := &probe{
		in: in, traced: traced, m: m,
		visibleAt: make([]atomic.Int64, n),
		tapAt:     make([]int64, n),
	}
	if traced {
		p.appStart, p.appEnd = make([]int64, n), make([]int64, n)
		p.pubStart, p.pubEnd = make([]int64, n), make([]int64, n)
	}
	m.reset()
	return p
}

// tap is loader.Options.Tap. Lines arrive in send order over one
// connection and one queue, so the next line must be the next unseen
// stream line; a gap means the bus lost lines (counted), a difference in
// bytes means it altered one.
func (p *probe) tap(line []byte) error {
	now := time.Now().UnixNano()
	i := p.tapNext
	if i >= len(p.in.lines) || !bytes.Equal(line, p.in.lines[i].Body) {
		j := p.in.indexOf(line)
		if j < i {
			p.tapErrs++ // altered, or a line seen before
			return nil
		}
		p.tapSkipped += j - i
		i = j
	}
	p.tapAt[i] = now
	p.tapNext = i + 1
	if p.log == nil {
		return nil
	}
	if !p.traced {
		_, err := p.log.Append(line)
		return err
	}
	p.appStart[i] = time.Now().UnixNano()
	_, err := p.log.Append(line)
	p.appEnd[i] = time.Now().UnixNano()
	return err
}

// ObserveBatch implements loader.ViewObserver. The visibility time is
// taken on entry and recorded before the real views see the batch, so an
// SSE delta can never reach the client ahead of the visibility record it
// is matched against.
func (p *probe) ObserveBatch(evs []*bp.Event) {
	now := time.Now().UnixNano()
	p.mu.Lock()
	for _, ev := range evs {
		wf := ev.Get(schema.AttrXwfID)
		i := p.m.match(wf, ev.Type)
		if i < 0 {
			continue
		}
		p.visibleAt[i].Store(now)
		if p.in.first[i] {
			p.visibleWFs = append(p.visibleWFs, wf)
		}
	}
	p.batches++
	p.events += len(evs)
	p.mu.Unlock()
	p.nVisible.Add(int64(len(evs)))
	p.lastVis.Store(now)

	t0 := time.Now().UnixNano()
	p.inner.ObserveBatch(evs)
	t1 := time.Now().UnixNano()
	p.mu.Lock()
	p.viewNS += t1 - t0
	if p.traced {
		p.viewSpans = append(p.viewSpans, [2]int64{t0, t1})
	}
	p.mu.Unlock()
}

// visibleWorkflow returns the k-th workflow (mod the count) that already
// has a visible event, or "" when none has.
func (p *probe) visibleWorkflow(k int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.visibleWFs) == 0 {
		return ""
	}
	return p.visibleWFs[k%len(p.visibleWFs)]
}

// waitVisible blocks until every line is visible or the deadline passes.
func (p *probe) waitVisible(deadline time.Time) {
	for p.nVisible.Load() < int64(len(p.in.lines)) && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
}

// visibleBy counts the lines visible at or before t (unix ns).
func (p *probe) visibleBy(t int64) float64 {
	n := 0
	for i := range p.visibleAt {
		if v := p.visibleAt[i].Load(); v != 0 && v <= t {
			n++
		}
	}
	return float64(n)
}

// visibleLatency is the send → visible distribution in ms over every
// visible line.
func (p *probe) visibleLatency() *dist {
	d := &dist{vals: make([]float64, 0, len(p.visibleAt))}
	for i := range p.visibleAt {
		if v := p.visibleAt[i].Load(); v != 0 {
			d.add(float64(v-p.sched(i)) / 1e6)
		}
	}
	return d
}

// problems reports the matcher's findings plus the Tap's.
func (p *probe) problems() []string {
	p.mu.Lock()
	out := p.m.problems()
	p.mu.Unlock()
	if p.tapErrs > 0 {
		out = append(out, "the Tap saw lines that differ from every stream line")
	}
	return out
}

// recordSpans turns the traced run's per-line timestamps into spans:
// event (send → visible) with children route (send → Tap) and queue
// (Tap → visible); publish nests in route, the event-log append in queue.
func (p *probe) recordSpans(sp *spans) {
	for i := range p.visibleAt {
		vis := p.visibleAt[i].Load()
		if vis == 0 || p.tapAt[i] == 0 {
			continue
		}
		s0, tap := p.sched(i), p.tapAt[i]
		ev := sp.add(span{name: spEvent, id: int64(i), parent: -1, start: s0, end: vis})
		rt := sp.add(span{name: spRoute, id: int64(i), parent: ev, start: s0, end: tap})
		if p.pubEnd != nil && p.pubEnd[i] != 0 {
			sp.add(span{name: spPublish, id: int64(i), parent: rt, start: p.pubStart[i], end: p.pubEnd[i]})
		}
		q := sp.add(span{name: spQueue, id: int64(i), parent: ev, start: tap, end: vis})
		if p.appEnd != nil && p.appEnd[i] != 0 {
			sp.add(span{name: spAppend, id: int64(i), parent: q, start: p.appStart[i], end: p.appEnd[i]})
		}
	}
	for b, v := range p.viewSpans {
		sp.add(span{name: spView, id: int64(b), parent: -1, start: v[0], end: v[1]})
	}
}
