package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
)

// Span names. The stage vocabulary is the one internal/trace and
// /metrics use (parse, validate, route, queue, apply, commit) extended
// with the serving stages (view, fan-out), so a benchmark regression and
// a production alert name the same layer.
const (
	spEvent    = "event"    // scheduled send (or reader hand-off) → visible; parent of the next three
	spRoute    = "route"    // scheduled send → the loader's Tap sees the line (mq wait)
	spPublish  = "publish"  // the producer's publish call; child of route
	spQueue    = "queue"    // Tap → visible: parse, validate, shard queue, batch fill, apply, commit
	spAppend   = "append"   // eventlog Append inside the Tap; child of queue
	spView     = "view"     // one (*views.Views).ObserveBatch call (batch id)
	spLedger   = "ledger"   // one ledger batch; parent of the next five
	spParse    = "parse"    // bp.ParseBytes over the batch
	spValidate = "validate" // (*schema.Validator).Validate over the batch
	spApply    = "apply"    // (*archive.Archive).ApplyBatch
	spCommit   = "commit"   // (*archive.Archive).Flush
	spFanout   = "fan-out"  // (*views.Views).FlushNow in the ledger
)

// span is one timed interval. id is an event index (stream line) or a
// batch number; parent is the index of the enclosing span in the
// recorder, or -1.
type span struct {
	name       string
	id         int64
	parent     int32
	start, end int64 // unix ns
}

// spans keeps every span of a traced run in memory; they are written out
// once the run is over.
type spans struct {
	mu  sync.Mutex
	all []span
}

func (s *spans) add(sp span) int32 {
	s.mu.Lock()
	s.all = append(s.all, sp)
	i := int32(len(s.all) - 1)
	s.mu.Unlock()
	return i
}

// selfNS sums, per span name, each span's duration minus the part its
// direct children cover, and counts the spans.
func (s *spans) selfNS() (self map[string]int64, count map[string]int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	self, count = map[string]int64{}, map[string]int64{}
	child := make([]int64, len(s.all))
	for _, sp := range s.all {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range s.all {
		self[sp.name] += sp.end - sp.start - child[i]
		count[sp.name]++
	}
	return self, count
}

// durations returns the durations (ms) of every span with the given name.
func (s *spans) durations(name string) *dist {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := &dist{}
	for _, sp := range s.all {
		if sp.name == name {
			d.add(float64(sp.end-sp.start) / 1e6)
		}
	}
	return d
}

// dump writes the spans as tab-separated text: index, name, id, parent,
// start and end in unix nanoseconds.
func (s *spans) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "#index\tname\tid\tparent\tstart_ns\tend_ns")
	s.mu.Lock()
	for i, sp := range s.all {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, sp.name, sp.id, sp.parent, sp.start, sp.end)
	}
	s.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
