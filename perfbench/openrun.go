package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/dashboard"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/query"
	"repro/internal/views"
)

// olConfig describes an open-loop workload: the stream is sent at a fixed
// rate whatever the program does with it.
type olConfig struct {
	rate        float64
	tcp         bool    // publish over mq TCP (else in-process Broker.Publish)
	subscribers int     // in-process SSE subscribers on counting sinks
	httpReader  bool    // the reader goes over HTTP (else in process)
	readRate    float64 // dashboard reads per second
}

const (
	shards     = 2 // loader shards and store partitions: the 2 cores of the reference machine
	queueName  = "stampede"
	setupReps  = 15 // set-ups per segment for the setup_s median (the last one is kept)
	drainAfter = 10 * time.Second
	lagAfter   = 5 * time.Second
)

// olStack is one running instance of the program for an open-loop pass.
type olStack struct {
	arch   *archive.Archive
	vw     *views.Views
	dash   *dashboard.Server
	web    *webServer
	broker *mq.Broker
	q      *mq.Queue
	srv    *mq.Server
	cli    *mq.Client
	cancel context.CancelFunc
	ldDone chan ldResult
	subs   *subscribers
	sse    *sseClient
}

type ldResult struct {
	stats loader.Stats
	err   error
}

// setupOL starts the program: store, views, dashboard HTTP server, bus,
// loader, subscribers and the HTTP SSE client. It returns once the first
// event can be accepted and every client is attached.
func setupOL(cfg olConfig, p *probe) (*olStack, error) {
	s := &olStack{arch: archive.NewInMemoryN(shards), vw: views.New(views.Options{})}
	p.inner = s.vw
	s.dash = dashboard.New(query.New(s.arch))
	s.dash.SetViews(s.vw)
	var err error
	fail := func(e error) (*olStack, error) {
		s.teardown()
		return nil, e
	}
	if s.web, err = startWeb(s.dash); err != nil {
		return fail(err)
	}
	s.broker = mq.NewBroker()
	if s.q, err = s.broker.DeclareQueue(queueName, mq.QueueOpts{Durable: true}); err != nil {
		return fail(err)
	}
	if err = s.broker.Bind(queueName, "stampede.#"); err != nil {
		return fail(err)
	}
	if cfg.tcp {
		if s.srv, err = mq.NewServer(s.broker, "127.0.0.1:0"); err != nil {
			return fail(err)
		}
		if s.cli, err = mq.Dial(s.srv.Addr()); err != nil {
			return fail(err)
		}
	}
	ld, err := loader.New(s.arch, loader.Options{
		Shards: shards, Validate: true, Lenient: true, Views: p, Tap: p.tap,
	})
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.ldDone = make(chan ldResult, 1)
	msgs := s.q.Consume()
	go func() {
		st, err := ld.Consume(ctx, msgs)
		s.ldDone <- ldResult{st, err}
	}()
	if cfg.subscribers > 0 {
		if s.subs, err = attachSubscribers(s.dash, cfg.subscribers); err != nil {
			return fail(err)
		}
		for s.vw.SubscriberCount() < cfg.subscribers {
			time.Sleep(100 * time.Microsecond)
		}
	}
	if s.sse, err = dialSSE(s.web.url, p); err != nil {
		return fail(err)
	}
	return s, nil
}

// stopLoader cancels the loader and returns its totals; events already
// handed to a shard are flushed first.
func (s *olStack) stopLoader() (loader.Stats, error) {
	if s.cancel == nil {
		return loader.Stats{}, nil
	}
	s.cancel()
	s.cancel = nil
	r := <-s.ldDone
	if errors.Is(r.err, context.Canceled) {
		r.err = nil
	}
	return r.stats, r.err
}

func (s *olStack) teardown() {
	if s.sse != nil {
		s.sse.close()
	}
	if s.subs != nil {
		s.subs.close()
	}
	if s.cli != nil {
		s.cli.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.stopLoader()
	if s.web != nil {
		s.web.close()
	}
	s.vw.Close()
}

// publish sends line i the way the workload's producers do.
func (s *olStack) publish(in *input, i int) error {
	ln := &in.lines[i]
	if s.cli != nil {
		return s.cli.PublishAsync(ln.Key, ln.Body)
	}
	s.broker.Publish(ln.Key, ln.Body)
	return nil
}

// segmentSeconds caps one open-loop segment. A run of S seconds is
// ceil(S/segmentSeconds) segments, each on a fresh instance of the program
// with its own input, so a longer run measures more workflows and more
// flush ticks without holding a longer stream in memory.
const segmentSeconds = 10

// segments splits a run of seconds into equal segments.
func segments(seconds float64) (n int, each float64) {
	n = int(math.Ceil(seconds / segmentSeconds))
	return n, seconds / float64(n)
}

// segmentInput builds segment k's stream of a run with the given seed.
func segmentInput(seed int64, k int, rate, seconds float64) (*input, error) {
	return buildInput(mixScenario(seed*64+int64(k), rate, seconds), rate)
}

// runOpenLoop makes one pass of an open-loop workload: its segments, one
// after the other.
func runOpenLoop(cfg olConfig, seed int64, seconds float64, traced bool) (*passResult, error) {
	res := newPassResult()
	if traced {
		res.spans = &spans{}
	}
	n, each := segments(seconds)
	for k := 0; k < n; k++ {
		in, err := segmentInput(seed, k, cfg.rate, each)
		if err != nil {
			return nil, err
		}
		if err := runSegment(cfg, in, traced, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runSegment runs the open loop over one input on a fresh instance of
// the program and adds what it measured to res.
func runSegment(cfg olConfig, in *input, traced bool, res *passResult) error {
	p := newProbe(in, in.newMatcher(), traced)

	// Set-up is timed several times over and reported as a median; every
	// set-up but the last is torn down again at once. Each starts from a
	// collected heap, as a starting process would.
	var s *olStack
	for k := 0; k < setupReps; k++ {
		runtime.GC()
		t0 := time.Now()
		st, err := setupOL(cfg, p)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if k < setupReps-1 {
			st.teardown()
			continue
		}
		s = st
	}
	defer s.teardown()
	vs0 := s.vw.Stats()

	url := ""
	if cfg.httpReader {
		url = s.web.url
	}
	// Each segment starts from a collected heap, so the previous
	// segment's garbage does not count against this one's peak.
	runtime.GC()
	rd := startReader(p, s.dash, url, cfg.readRate)
	var backlog atomic.Int64
	smp := startSampler(20*time.Millisecond, func() {
		if n := int64(s.q.Len()); n > backlog.Load() {
			backlog.Store(n)
		}
	})
	mw := openMemWindow()
	ol := &openLoop{clk: wallClock{}, start: time.Now().Add(time.Millisecond), due: in.due}
	p.sched = func(i int) int64 { return ol.sched(i).UnixNano() }
	var pubErrs int
	var lastSend int64
	sent := len(in.lines)
	late := ol.run(func(i int) {
		var err error
		if traced {
			p.pubStart[i] = time.Now().UnixNano()
			err = s.publish(in, i)
			p.pubEnd[i] = time.Now().UnixNano()
		} else {
			err = s.publish(in, i)
		}
		if err != nil {
			pubErrs++
		}
		lastSend = time.Now().UnixNano()
	})
	p.waitVisible(time.Now().Add(drainAfter))
	s.sse.waitTerminal(len(in.wfs), time.Now().Add(lagAfter))
	res.heapPeaks = append(res.heapPeaks, smp.halt())
	mallocs, gcs, pause := mw.close()
	rd.halt()
	window := time.Duration(p.lastVis.Load() - ol.start.UnixNano())

	res.checkClientAgrees(s.vw, s.sse, in)
	ldStats, ldErr := s.stopLoader()
	if ldErr != nil {
		res.fail("loader: %v", ldErr)
	}
	drops := s.broker.Stats().Dropped
	res.collect(p, sent, pubErrs, int(drops), ldStats)
	res.epsVals = append(res.epsVals, p.visibleBy(lastSend)/(float64(lastSend-ol.start.UnixNano())/1e9))
	res.lag.vals = append(res.lag.vals, s.sse.lag().vals...)
	res.read(rd)
	res.mallocs += float64(mallocs)
	res.gcCycles += float64(gcs)
	res.gcPauseMS += ms(pause)
	res.late.vals = append(res.late.vals, late.vals...)
	res.loaderLayer(ldStats, p, window)
	res.mqBacklog = max(res.mqBacklog, float64(backlog.Load()))
	res.mqDropped += float64(drops)
	vs := s.vw.Stats()
	res.viewsDropped += float64(vs.Dropped - vs0.Dropped)
	res.viewsResyncs += float64(vs.Resyncs - vs0.Resyncs)
	res.sseStats(s.sse, s.subs)
	if err := s.sse.streamErr(); err != nil {
		res.fail("sse client: %v", err)
	}
	if traced {
		p.recordSpans(res.spans)
	}
	return nil
}

// checkClientAgrees flushes the views and requires the SSE client's last
// delta for every workflow to equal the view's current state.
func (r *passResult) checkClientAgrees(vw *views.Views, c *sseClient, in *input) {
	vw.FlushNow()
	deadline := time.Now().Add(lagAfter)
	behind := func() int {
		n := 0
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, wf := range in.wfs {
			d, ok := vw.Workflow(wf)
			if !ok || c.lastSeq[wf] != d.Seq {
				n++
			}
		}
		return n
	}
	for behind() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bad := 0
	for _, wf := range in.wfs {
		d, ok := vw.Workflow(wf)
		if !ok {
			bad++
			continue
		}
		want, err := json.Marshal(d)
		if err != nil || !bytes.Equal(want, c.lastBody[wf]) {
			bad++
		}
	}
	if bad > 0 {
		r.fail("SSE client's last delta differs from the view for %d of %d workflows", bad, len(in.wfs))
	}
}
