package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/eventlog"
	"repro/internal/loader"
	"repro/internal/mq"
	"repro/internal/relstore"
	"repro/internal/schema"
	"repro/internal/views"
)

// ledgerStages are the layers the ledger pass times, in pipeline order.
var ledgerStages = []string{spParse, spValidate, spApply, spCommit, spView, spFanout}

// ledger is the per-layer cost of one input: self time per event of each
// layer's public function, and the loader's own cost on the same input.
// The bus and durable figures stand in for layers the workload itself
// does not run.
type ledger struct {
	events   int
	selfNS   map[string]float64 // per event
	count    map[string]int64
	layersNS float64 // sum of the stages' self time per event
	loaderNS float64 // loader CPU time per event
	spans    *spans

	publishNS float64 // mq.Broker.Publish self time per event
	busWait   *dist   // publish → consumer receive, ms
	durable   *durableCost
}

// ledgerPass feeds the input through the layers directly, the way the
// loader does: loader-sized batches parsed with bp.ParseBytes, validated,
// folded with ApplyBatch, committed with Flush, observed by the views,
// then released. The views are flushed as often as their 200ms ticker
// would fire at rate events/s. Each batch is a span whose children
// are the stage calls, so a stage's self time is exactly its calls.
func ledgerPass(in *input, rate float64) (*ledger, error) {
	arch := archive.NewInMemoryN(shards)
	val, err := schema.NewValidator()
	if err != nil {
		return nil, err
	}
	vw := views.New(views.Options{FlushEvery: time.Hour})
	defer vw.Close()
	batch := loader.DefaultBatchSize
	lg := &ledger{events: len(in.lines), spans: &spans{}}
	flushEach := max(int(rate*0.2)/batch, 1)
	sp := lg.spans
	evs := make([]*bp.Event, 0, batch)
	runtime.GC()
	for b, lo := 0, 0; lo < len(in.lines); b, lo = b+1, lo+batch {
		hi := min(lo+batch, len(in.lines))
		t0 := time.Now().UnixNano()
		parent := sp.add(span{name: spLedger, id: int64(b), parent: -1, start: t0})
		evs = evs[:0]
		for i := lo; i < hi; i++ {
			ev, err := bp.ParseBytes(in.lines[i].Body)
			if err != nil {
				return nil, fmt.Errorf("ledger: line %d: %w", i, err)
			}
			evs = append(evs, ev)
		}
		t1 := time.Now().UnixNano()
		for _, ev := range evs {
			if err := val.Validate(ev); err != nil {
				return nil, fmt.Errorf("ledger: %w", err)
			}
		}
		t2 := time.Now().UnixNano()
		if _, err := arch.ApplyBatch(evs); err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		t3 := time.Now().UnixNano()
		if err := arch.Flush(); err != nil {
			return nil, err
		}
		t4 := time.Now().UnixNano()
		vw.ObserveBatch(evs)
		t5 := time.Now().UnixNano()
		t6 := t5
		if (b+1)%flushEach == 0 || hi == len(in.lines) {
			vw.FlushNow()
			t6 = time.Now().UnixNano()
			sp.add(span{name: spFanout, id: int64(b), parent: parent, start: t5, end: t6})
		}
		for i, ev := range evs {
			bp.ReleaseEvent(ev)
			evs[i] = nil
		}
		end := time.Now().UnixNano()
		sp.add(span{name: spParse, id: int64(b), parent: parent, start: t0, end: t1})
		sp.add(span{name: spValidate, id: int64(b), parent: parent, start: t1, end: t2})
		sp.add(span{name: spApply, id: int64(b), parent: parent, start: t2, end: t3})
		sp.add(span{name: spCommit, id: int64(b), parent: parent, start: t3, end: t4})
		sp.add(span{name: spView, id: int64(b), parent: parent, start: t4, end: t5})
		sp.mu.Lock()
		sp.all[parent].end = end
		sp.mu.Unlock()
	}
	self, count := sp.selfNS()
	lg.selfNS, lg.count = map[string]float64{}, map[string]int64{}
	for _, st := range ledgerStages {
		lg.selfNS[st] = float64(self[st]) / float64(lg.events)
		lg.count[st] = count[st]
		lg.layersNS += lg.selfNS[st]
	}
	return lg, nil
}

// loaderCPU loads the same input through the loader itself — sharded,
// validating, into an in-memory store with views attached — three times
// and returns the median process CPU time it took per event. The ledger's
// stage costs are single-threaded self times, so the loader's CPU time
// (both shards and its producer together, collector included) is the
// figure they should add up to; the difference is routing, queues,
// batching and hand-offs.
func loaderCPU(in *input) (float64, error) {
	joined := in.joined()
	var per []float64
	for k := 0; k < 3; k++ {
		ns, err := loadCPU(in, joined)
		if err != nil {
			return 0, err
		}
		per = append(per, ns)
	}
	return median(per), nil
}

func loadCPU(in *input, joined []byte) (float64, error) {
	arch := archive.NewInMemoryN(shards)
	vw := views.New(views.Options{FlushEvery: time.Hour})
	defer vw.Close()
	ld, err := loader.New(arch, loader.Options{Shards: shards, Validate: true, Lenient: true, Views: vw})
	if err != nil {
		return 0, err
	}
	runtime.GC()
	c0 := cpuNow()
	st, err := ld.LoadReader(bytes.NewReader(joined))
	c1 := cpuNow()
	if err != nil {
		return 0, err
	}
	if int(st.Loaded) != len(in.lines) {
		return 0, fmt.Errorf("reconciliation load applied %d of %d events", st.Loaded, len(in.lines))
	}
	return float64(c1-c0) / float64(len(in.lines)), nil
}

// cpuNow is the process's user plus system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// busLedger publishes the input through an in-process broker to one
// consumer, the way the bus carries it to the loader, and returns the
// publish call's self time per event and the publish → receive waits (ms).
// It stands in for the mq layer on the workload that does not use the bus.
func busLedger(in *input) (float64, *dist, error) {
	b := mq.NewBroker()
	q, err := b.DeclareQueue(queueName, mq.QueueOpts{Durable: true, Capacity: len(in.lines)})
	if err != nil {
		return 0, nil, err
	}
	if err := b.Bind(queueName, "stampede.#"); err != nil {
		return 0, nil, err
	}
	sent := make([]int64, len(in.lines))
	got := make([]int64, len(in.lines))
	msgs := q.Consume()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range got {
			<-msgs
			got[i] = time.Now().UnixNano()
		}
	}()
	var self int64
	for i := range in.lines {
		t0 := time.Now().UnixNano()
		b.Publish(in.lines[i].Key, in.lines[i].Body)
		self += time.Now().UnixNano() - t0
		sent[i] = t0
	}
	<-done
	b.DeleteQueue(queueName)
	if d := b.Stats().Dropped; d != 0 {
		return 0, nil, fmt.Errorf("bus ledger: %d messages dropped", d)
	}
	wait := &dist{vals: make([]float64, len(got))}
	for i := range got {
		wait.vals[i] = float64(got[i]-sent[i]) / 1e6
	}
	return float64(self) / float64(len(in.lines)), wait, nil
}

// durableCost is what one durable load of an input cost the event log
// and the store, and how long the store took to recover.
type durableCost struct {
	appendNS, logBytes, appends     float64
	fsyncs, storeBytes, events      float64
	ckptSeconds, ckptBytes, recover float64
}

// durableLedger loads the input the way backfill does — event-log tap,
// partitioned store with fsync and checkpoints — closes it and times the
// reopen. It stands in for the durable layers on the workloads that run
// in memory.
func durableLedger(in *input, dir string) (*durableCost, error) {
	defer os.RemoveAll(dir)
	lg, err := eventlog.Open(filepath.Join(dir, "eventlog"), eventlog.Options{})
	if err != nil {
		return nil, err
	}
	defer lg.Close()
	arch, err := archive.OpenDir(filepath.Join(dir, "store"), relstore.Options{
		Partitions: shards, CheckpointEvery: backfillCheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	defer arch.Close()
	arch.Store().SetSync(true)
	c := &durableCost{events: float64(len(in.lines))}
	var appendNS int64
	ld, err := loader.New(arch, loader.Options{Shards: shards, Validate: true, Lenient: true,
		Tap: func(line []byte) error {
			t0 := time.Now().UnixNano()
			_, err := lg.Append(line)
			appendNS += time.Now().UnixNano() - t0
			return err
		}})
	if err != nil {
		return nil, err
	}
	ck := watchCheckpoints(arch.Store())
	_, err = ld.LoadReader(bytes.NewReader(in.joined()))
	ck.halt()
	if err != nil {
		return nil, err
	}
	c.appends = float64(lg.Appends())
	c.appendNS = float64(appendNS) / c.appends
	c.fsyncs = float64(arch.Store().Syncs())
	c.ckptSeconds, c.ckptBytes = ck.seconds, ck.bytes
	if err := arch.Close(); err != nil {
		return nil, err
	}
	if err := lg.Close(); err != nil {
		return nil, err
	}
	c.logBytes = float64(dirBytes(filepath.Join(dir, "eventlog")))
	c.storeBytes = float64(dirBytes(filepath.Join(dir, "store")))
	t0 := time.Now()
	rec, err := archive.OpenDir(filepath.Join(dir, "store"), relstore.Options{Partitions: shards})
	if err != nil {
		return nil, err
	}
	sn := rec.Snapshot()
	c.recover = time.Since(t0).Seconds()
	sn.Close()
	return c, rec.Close()
}
