package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/loader"
)

// passResult is everything one pass of a workload measured.
type passResult struct {
	events    int // lines sent (or read, on the closed loop)
	attempted int
	failed    int
	problems  []string

	setups  []float64
	visible dist
	lag     dist
	reads   dist
	// The tails of each segment or cycle: a stall that hits one of them
	// sets a pooled tail, so the reported tail is their median.
	visible99 []float64
	read90    []float64
	readRoute map[string]*dist
	epsVals   []float64 // per segment or cycle
	heapPeaks []float64 // MiB, per segment or cycle

	mallocs   float64
	gcCycles  float64
	gcPauseMS float64
	late      dist

	// Layer figures.
	mqBacklog, mqDropped        float64
	viewsDropped, viewsResyncs  float64
	batches, batchEvents        float64
	maxQueue                    float64
	viewNS                      float64
	flushNS, windowNS           float64
	frameGaps                   dist
	sseBytes                    float64
	recover                     []float64
	logBytes                    float64
	storeBytes, fsyncs, appends float64
	ckptSeconds, ckptBytes      float64
	cycles                      int
	spans                       *spans
}

func newPassResult() *passResult {
	r := &passResult{readRoute: map[string]*dist{}}
	for _, rt := range readRoutes {
		r.readRoute[rt] = &dist{}
	}
	return r
}

func (r *passResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// collect takes the probe's record of one segment or cycle and applies
// the exact-accounting rule: every published event is either visible or
// explained by a counted failure (bus drop, loader invalid, unknown or
// malformed).
func (r *passResult) collect(p *probe, sent, pubErrs, drops int, st loader.Stats) {
	vis := p.visibleLatency()
	if v, n := vis.pct(99); n > 0 {
		r.visible99 = append(r.visible99, v)
	}
	r.visible.vals = append(r.visible.vals, vis.vals...)
	r.problems = append(r.problems, p.problems()...)
	p.mu.Lock()
	visible := p.m.seen
	p.mu.Unlock()
	published := sent - pubErrs
	notVisible := published - visible
	explained := drops + int(st.Invalid+st.Unknown+st.Malformed)
	r.events += sent
	r.attempted += sent
	r.failed += pubErrs + notVisible
	if notVisible != explained {
		r.fail("accounting: %d published, %d visible, but %d failures counted (drops %d, invalid %d, unknown %d, malformed %d)",
			published, visible, explained, drops, st.Invalid, st.Unknown, st.Malformed)
	}
}

func (r *passResult) read(rd *reader) {
	r.attempted += rd.issued
	r.failed += rd.errs
	if v, n := rd.all.pct(90); n > 0 {
		r.read90 = append(r.read90, v)
	}
	r.reads.vals = append(r.reads.vals, rd.all.vals...)
	for rt, d := range rd.lat {
		r.readRoute[rt].vals = append(r.readRoute[rt].vals, d.vals...)
	}
	for _, e := range rd.errText {
		r.fail("read: %s", e)
	}
}

// loaderLayer takes the loader's own counters: batches and events seen
// at the Views hook, and the per-shard flush time and queue high-water.
func (r *passResult) loaderLayer(st loader.Stats, p *probe, window time.Duration) {
	p.mu.Lock()
	r.batches += float64(p.batches)
	r.batchEvents += float64(p.events)
	r.viewNS += float64(p.viewNS)
	p.mu.Unlock()
	for _, sh := range st.Shards {
		r.flushNS += float64(sh.FlushTime)
		r.maxQueue = max(r.maxQueue, float64(sh.MaxQueue))
	}
	r.windowNS += float64(window)
}

// sseStats adds the frame gaps the HTTP client saw and the bytes it and
// the in-process subscribers received.
func (r *passResult) sseStats(c *sseClient, subs *subscribers) {
	c.mu.Lock()
	r.frameGaps.vals = append(r.frameGaps.vals, c.frameGaps.vals...)
	c.mu.Unlock()
	r.sseBytes += float64(c.bytes.Load())
	if subs != nil {
		r.sseBytes += float64(subs.bytes())
	}
}

// allocsPerEvent is mallocs over the measured windows per event sent.
func (r *passResult) allocsPerEvent() float64 { return r.mallocs / float64(max(r.events, 1)) }

func (r *passResult) correct() bool { return len(r.problems) == 0 }

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value; 0 for counts and ratios
}

// endToEnd lists the figures a user of the system sees, in the order of
// BENCHMARK.json. The visible and read tails are medians over segments or
// cycles; their sample counts are the samples behind all of them.
func (r *passResult) endToEnd() []metric {
	v50, vn := r.visible.pct(50)
	l90, ln := r.lag.pct(90)
	r50, rn := r.reads.pct(50)
	return []metric{
		{"setup_s", "s", median(r.setups), len(r.setups)},
		{"visible_p50_ms", "ms", v50, vn},
		{"visible_p99_ms", "ms", median(r.visible99), vn},
		{"client_lag_p90_ms", "ms", l90, ln},
		{"events_per_s", "1/s", median(r.epsVals), len(r.epsVals)},
		{"read_p50_ms", "ms", r50, rn},
		{"read_p90_ms", "ms", median(r.read90), rn},
		{"allocs_per_event", "count", r.allocsPerEvent(), r.events},
		{"heap_peak_mb", "MB", median(r.heapPeaks), len(r.heapPeaks)},
	}
}

// extra lists end-to-end figures that are printed but not registered:
// medians and tails that move too much between runs on the reference
// machine to hold a bound, a ratio that is zero on a healthy run, and
// figures of one workload only. README.md gives the measured spreads.
func (r *passResult) extra() []metric {
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	l50, ln := r.lag.pct(50)
	r99, rn := r.reads.pct(99)
	out := []metric{
		{"client_lag_p50_ms", "ms", l50, ln},
		{"read_p99_ms", "ms", r99, rn},
		{"failed_frac", "frac", frac, r.attempted},
	}
	if len(r.recover) > 0 {
		out = append(out,
			metric{"recover_s", "s", median(r.recover), len(r.recover)},
			metric{"disk_bytes_per_event", "B", r.diskBytesPerEvent(), r.events})
	}
	return out
}

// report writes the human figures, one per line, then the registered
// metrics as the result object on the last line of w.
func report(w io.Writer, workload string, seed int64, r *passResult, human, registered []metric) error {
	fmt.Fprintf(w, "workload %s seed %d: %d events, %d attempted operations, %d failed\n",
		workload, seed, r.events, r.attempted, r.failed)
	for _, m := range human {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]val{}}
	for _, m := range registered {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// diskBytesPerEvent is the event log plus store directory size per event
// loaded (backfill).
func (r *passResult) diskBytesPerEvent() float64 {
	return (r.logBytes + r.storeBytes) / float64(max(r.events, 1))
}
