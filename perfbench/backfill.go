package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/dashboard"
	"repro/internal/eventlog"
	"repro/internal/loader"
	"repro/internal/query"
	"repro/internal/relstore"
	"repro/internal/views"
)

// backfillCheckpointEvery is the WAL record count between automatic
// checkpoints. The default (65536 per partition) would never fire on one
// cycle's input; this value makes every cycle take checkpoints, so their
// cost and their effect on recovery are part of what is measured.
const backfillCheckpointEvery = 16384

// bfStack is one running instance of the program for a backfill cycle.
type bfStack struct {
	log  *eventlog.Log
	arch *archive.Archive
	vw   *views.Views
	dash *dashboard.Server
	web  *webServer
	sse  *sseClient
	ld   *loader.Loader
}

// setupBF opens a fresh event log and durable partitioned store under
// dir and starts the views, dashboard and SSE client beside them.
func setupBF(dir string, p *probe) (*bfStack, error) {
	s := &bfStack{}
	fail := func(err error) (*bfStack, error) {
		s.teardown()
		return nil, err
	}
	var err error
	if err = os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if s.log, err = eventlog.Open(filepath.Join(dir, "eventlog"), eventlog.Options{}); err != nil {
		return fail(err)
	}
	p.log = s.log
	if s.arch, err = archive.OpenDir(filepath.Join(dir, "store"), relstore.Options{
		Partitions: shards, CheckpointEvery: backfillCheckpointEvery,
	}); err != nil {
		return fail(err)
	}
	s.arch.Store().SetSync(true)
	s.vw = views.New(views.Options{})
	p.inner = s.vw
	s.dash = dashboard.New(query.New(s.arch))
	s.dash.SetViews(s.vw)
	if s.web, err = startWeb(s.dash); err != nil {
		return fail(err)
	}
	if s.ld, err = loader.New(s.arch, loader.Options{
		Shards: shards, Validate: true, Lenient: true, Views: p, Tap: p.tap,
	}); err != nil {
		return fail(err)
	}
	if s.sse, err = dialSSE(s.web.url, p); err != nil {
		return fail(err)
	}
	return s, nil
}

// teardown stops the clients and closes the store and the log; it
// returns the first close error.
func (s *bfStack) teardown() error {
	if s.sse != nil {
		s.sse.close()
	}
	if s.web != nil {
		s.web.close()
	}
	if s.vw != nil {
		s.vw.Close()
	}
	var first error
	if s.arch != nil {
		first = s.arch.Close()
	}
	if s.log != nil {
		if err := s.log.Close(); first == nil {
			first = err
		}
	}
	return first
}

// backfill is the closed-loop workload: fixed inputs loaded flat out,
// durably, one per cycle in turn, until the run's time is up.
type backfill struct {
	inputs   []*bfInput
	workdir  string
	readRate float64
}

// bfInput is one backfill input with what its cycles check against.
type bfInput struct {
	in     *input
	joined []byte
	m      *matcher
	// refCounts are the per-table row counts of a sequential in-memory
	// load of the same input.
	refCounts map[string]int
}

func newBFInput(in *input) (*bfInput, error) {
	bi := &bfInput{in: in, joined: in.joined(), m: in.newMatcher()}
	var err error
	bi.refCounts, err = refCounts(bi.joined)
	return bi, err
}

// run makes cycles until seconds have passed, at least two.
func (b *backfill) run(traced bool, seconds float64) (*passResult, error) {
	res := newPassResult()
	// Extra set-ups so setup_s is a median over several, as on the open
	// loops; each is torn down and removed at once.
	for k := 0; k < setupReps-2; k++ {
		dir := filepath.Join(b.workdir, fmt.Sprintf("setup-%d", k))
		p := newProbe(b.inputs[0].in, b.inputs[0].m, false)
		runtime.GC()
		t0 := time.Now()
		s, err := setupBF(dir, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		s.teardown()
		os.RemoveAll(dir)
	}
	start := time.Now()
	if traced {
		res.spans = &spans{}
	}
	for k := 0; k < 2 || time.Since(start).Seconds() < seconds; k++ {
		bi := b.inputs[k%len(b.inputs)]
		if err := b.cycle(res, bi, traced, filepath.Join(b.workdir, fmt.Sprintf("cycle-%d", k))); err != nil {
			return nil, err
		}
		res.cycles++
	}
	return res, nil
}

// cycle is one set-up, load, drain, close and recovery.
func (b *backfill) cycle(res *passResult, bi *bfInput, traced bool, dir string) error {
	defer os.RemoveAll(dir)
	p := newProbe(bi.in, bi.m, traced)
	p.sched = func(i int) int64 { return p.tapAt[i] }
	liveHash, err := b.load(res, p, bi, dir)
	if err != nil {
		return err
	}
	if traced {
		p.recordSpans(res.spans)
	}
	return recoverBF(res, bi, dir, liveHash)
}

// load sets up the program on a fresh directory, loads the input, waits
// for the SSE client, checks what the program made of it and closes the
// store and log again. It returns the live snapshot hash.
func (b *backfill) load(res *passResult, p *probe, bi *bfInput, dir string) (string, error) {
	// As on the open loops, set-up and the load each start from a
	// collected heap, so each cycle's heap peak is its own.
	runtime.GC()
	t0 := time.Now()
	s, err := setupBF(dir, p)
	if err != nil {
		return "", fmt.Errorf("set-up: %w", err)
	}
	vs0 := s.vw.Stats()
	res.setups = append(res.setups, time.Since(t0).Seconds())
	runtime.GC()
	rd := startReader(p, s.dash, "", b.readRate)

	ck := watchCheckpoints(s.arch.Store())
	smp := startSampler(20 * time.Millisecond)
	mw := openMemWindow()
	t1 := time.Now()
	st, lerr := s.ld.LoadReader(bytes.NewReader(bi.joined))
	load := time.Since(t1)
	s.sse.waitTerminal(len(bi.in.wfs), time.Now().Add(lagAfter))
	mallocs, gcs, pause := mw.close()
	res.heapPeaks = append(res.heapPeaks, smp.halt())
	res.epsVals = append(res.epsVals, float64(len(bi.in.lines))/load.Seconds())
	res.mallocs += float64(mallocs)
	res.gcCycles += float64(gcs)
	res.gcPauseMS += ms(pause)
	rd.halt()
	ck.halt()
	if lerr != nil {
		res.fail("load: %v", lerr)
	}
	res.collect(p, len(bi.in.lines), 0, p.tapSkipped, st)
	res.read(rd)
	res.checkClientAgrees(s.vw, s.sse, bi.in)
	res.lag.vals = append(res.lag.vals, s.sse.lag().vals...)
	res.loaderLayer(st, p, load)
	res.sseStats(s.sse, nil)
	if err := s.sse.streamErr(); err != nil {
		res.fail("sse client: %v", err)
	}
	vs := s.vw.Stats()
	res.viewsDropped += float64(vs.Dropped - vs0.Dropped)
	res.viewsResyncs += float64(vs.Resyncs - vs0.Resyncs)

	sn := s.arch.Snapshot()
	liveHash, herr := sn.Hash()
	sn.Close()
	if herr != nil {
		res.fail("hash: %v", herr)
	}
	res.fsyncs += float64(s.arch.Store().Syncs())
	appends := s.log.Appends()
	res.appends += float64(appends)
	if cerr := s.teardown(); cerr != nil {
		res.fail("close: %v", cerr)
	}
	if want := uint64(len(bi.in.lines)); appends != want || st.Read+st.Malformed != want {
		res.fail("event log holds %d records; %d lines were read (loader read %d)", appends, want, st.Read+st.Malformed)
	}
	res.logBytes += float64(dirBytes(filepath.Join(dir, "eventlog")))
	res.storeBytes += float64(dirBytes(filepath.Join(dir, "store")))
	res.ckptSeconds += ck.seconds
	res.ckptBytes += ck.bytes
	if ck.count == 0 {
		res.fail("no checkpoint was taken during the load")
	}
	return liveHash, nil
}

// recoverBF reopens the closed store, times it until a snapshot can be
// read, and checks the recovered state against the live hash and the
// sequential reference load.
func recoverBF(res *passResult, bi *bfInput, dir, liveHash string) error {
	t2 := time.Now()
	rec, err := archive.OpenDir(filepath.Join(dir, "store"), relstore.Options{Partitions: shards})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	rsn := rec.Snapshot()
	res.recover = append(res.recover, time.Since(t2).Seconds())
	recHash, herr := rsn.Hash()
	if herr != nil {
		res.fail("recovered hash: %v", herr)
	} else if recHash != liveHash {
		res.fail("recovered snapshot hash %.12s differs from the live one %.12s", recHash, liveHash)
	}
	for table, want := range bi.refCounts {
		if got, err := rsn.Count(table); err != nil || got != want {
			res.fail("table %s: %d rows after recovery, %d in the sequential reference load (%v)", table, got, want, err)
		}
	}
	rsn.Close()
	if err := rec.Close(); err != nil {
		res.fail("close recovered store: %v", err)
	}
	return nil
}

// ckptWatch accumulates the checkpoints CheckpointStats reports while a
// load runs: each (partition, seq) once.
type ckptWatch struct {
	store   *relstore.Store
	stop    chan struct{}
	done    chan struct{}
	mu      sync.Mutex
	seen    map[[2]uint64]bool
	count   int
	seconds float64
	bytes   float64
}

// watchCheckpoints polls the store's checkpoint stats every 10ms until
// halt.
func watchCheckpoints(s *relstore.Store) *ckptWatch {
	c := &ckptWatch{store: s, stop: make(chan struct{}), done: make(chan struct{}), seen: map[[2]uint64]bool{}}
	go func() {
		defer close(c.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			c.poll()
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
	return c
}

// halt stops the poller and takes a last reading.
func (c *ckptWatch) halt() {
	close(c.stop)
	<-c.done
	c.poll()
}

func (c *ckptWatch) poll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cs := range c.store.CheckpointStats() {
		key := [2]uint64{uint64(cs.Partition), cs.Seq}
		if !cs.Taken || c.seen[key] {
			continue
		}
		c.seen[key] = true
		c.count++
		c.seconds += cs.Duration.Seconds()
		c.bytes += float64(cs.Bytes)
	}
}

// refCounts loads the input sequentially into an in-memory archive and
// returns its per-table row counts. A sharded load does not hash equal
// to this one — primary keys follow apply order across shards — but it
// holds exactly the same rows.
func refCounts(joined []byte) (map[string]int, error) {
	arch := archive.NewInMemory()
	ld, err := loader.New(arch, loader.Options{Validate: true, Lenient: true})
	if err != nil {
		return nil, err
	}
	if _, err := ld.LoadReader(bytes.NewReader(joined)); err != nil {
		return nil, err
	}
	sn := arch.Snapshot()
	defer sn.Close()
	out := map[string]int{}
	for _, t := range sn.TableNames() {
		n, err := sn.Count(t)
		if err != nil {
			return nil, err
		}
		out[t] = n
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}
