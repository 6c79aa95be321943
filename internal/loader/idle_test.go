package loader

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bp"
	"repro/internal/mq"
	"repro/internal/schema"
	"repro/internal/uuid"
)

// signalObserver is a ViewObserver that counts ObserveBatch calls and
// applied events, and signals seen after each batch. It runs on apply
// goroutines, so the counters are atomic.
type signalObserver struct {
	calls  atomic.Int64
	events atomic.Int64
	seen   chan struct{}
}

func newSignalObserver() *signalObserver {
	return &signalObserver{seen: make(chan struct{}, 1)}
}

func (o *signalObserver) ObserveBatch(evs []*bp.Event) {
	o.calls.Add(1)
	o.events.Add(int64(len(evs)))
	select {
	case o.seen <- struct{}{}:
	default:
	}
}

// waitApplied blocks until the observer has seen want events. The
// deadline only bounds a broken loader; a working one never reaches it.
func (o *signalObserver) waitApplied(t *testing.T, want int64) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for o.events.Load() < want {
		select {
		case <-o.seen:
		case <-deadline:
			t.Fatalf("%d of %d events visible; the buffered batch never committed", o.events.Load(), want)
		}
	}
}

func startEvent(wf string) []byte {
	return []byte(bp.New(schema.XwfStart, t0).Set(schema.AttrXwfID, wf).SetInt("restart_count", 0).Format())
}

// TestIdleCommitMakesLoneEventVisible: with a batch size no stream
// reaches and no clock anywhere, one published event commits because no
// further event is queued behind it.
func TestIdleCommitMakesLoneEventVisible(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			obs := newSignalObserver()
			a := archive.NewInMemory()
			l, err := New(a, Options{BatchSize: 100000, Shards: shards, Views: obs})
			if err != nil {
				t.Fatal(err)
			}
			msgs := make(chan mq.Message, 1)
			msgs <- mq.Message{Body: startEvent(uuid.New().String())}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := l.Consume(ctx, msgs)
				done <- err
			}()
			obs.waitApplied(t, 1)
			if n, _ := a.Store().Count(archive.TWorkflowState); n != 1 {
				t.Fatalf("workflowstate rows = %d, want 1", n)
			}
			cancel()
			<-done
		})
	}
}

// TestIdleCommitSurvivesTrailingBadMessages: in lenient mode a valid
// event followed only by malformed lines and schema-invalid events still
// commits, whichever kind comes last: a shard must not wait on its
// validate queue, whose events are all dropped before reaching it.
func TestIdleCommitSurvivesTrailingBadMessages(t *testing.T) {
	// Enough invalid events that the validate queue is still busy when
	// the shard receives the valid one.
	const invalid = 1000
	for _, tc := range []struct {
		name          string
		malformedLast bool
	}{{"invalid-last", false}, {"malformed-last", true}} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				obs := newSignalObserver()
				a := archive.NewInMemory()
				l, err := New(a, Options{BatchSize: 100000, Shards: shards, Validate: true, Lenient: true, Views: obs})
				if err != nil {
					t.Fatal(err)
				}
				wf := uuid.New().String()
				msgs := make(chan mq.Message, 2+invalid)
				malformed := mq.Message{Body: []byte("not a bp line")}
				msgs <- mq.Message{Body: startEvent(wf)}
				if !tc.malformedLast {
					msgs <- malformed
				}
				// Same workflow, so the same shard; no restart_count.
				for i := 0; i < invalid; i++ {
					msgs <- mq.Message{Body: []byte("ts=2012-03-13T12:35:39.000000Z event=stampede.xwf.start xwf.id=" + wf)}
				}
				if tc.malformedLast {
					msgs <- malformed
				}
				type result struct {
					st  Stats
					err error
				}
				done := make(chan result, 1)
				go func() {
					st, err := l.Consume(context.Background(), msgs)
					done <- result{st, err}
				}()
				obs.waitApplied(t, 1)
				// Only now end the stream, so the counts below are final.
				close(msgs)
				r := <-done
				if r.err != nil {
					t.Fatal(r.err)
				}
				if r.st.Loaded != 1 || r.st.Malformed != 1 || r.st.Invalid != invalid {
					t.Fatalf("stats = %s (invalid=%d), want loaded=1 malformed=1 invalid=%d", r.st.String(), r.st.Invalid, invalid)
				}
			})
		}
	}
}

// gateObserver records the size of every observed batch and holds the
// first ObserveBatch call until release is closed, keeping its shard busy
// inside that commit.
type gateObserver struct {
	release chan struct{}
	sizes   []int
}

func (o *gateObserver) ObserveBatch(evs []*bp.Event) {
	if len(o.sizes) == 0 {
		<-o.release
	}
	o.sizes = append(o.sizes, len(evs))
}

// TestConsumeBacklogKeepsBatchesFull: once a shard's queue holds a
// backlog, the queue only runs dry after the last event, so every batch
// but the first and the last is full, and none is larger. The first commit is held until the
// producer has dispatched every event (the Tap sees the trailing
// malformed line only after the last valid event is queued), so the
// backlog does not depend on scheduling.
func TestConsumeBacklogKeepsBatchesFull(t *testing.T) {
	const batchSize = 50
	var lines []string
	for k := 0; k < 8; k++ {
		wf := uuid.New().String()
		lines = append(lines, strings.Split(strings.TrimSpace(workflowStream(wf, 12)), "\n")...)
	}
	n := len(lines)
	malformed := []byte("not a bp line")
	msgs := make(chan mq.Message, n+1)
	for _, line := range lines {
		msgs <- mq.Message{Body: []byte(line)}
	}
	msgs <- mq.Message{Body: malformed}
	close(msgs)
	obs := &gateObserver{release: make(chan struct{})}
	dispatched := make(chan struct{})
	tap := func(line []byte) error {
		if bytes.Equal(line, malformed) {
			close(dispatched)
		}
		return nil
	}
	a := archive.NewInMemory()
	l, err := New(a, Options{BatchSize: batchSize, QueueDepth: n, Lenient: true, Tap: tap, Views: obs})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		st  Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := l.Consume(context.Background(), msgs)
		done <- result{st, err}
	}()
	<-dispatched
	close(obs.release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.st.Loaded != uint64(n) || r.st.Malformed != 1 {
		t.Fatalf("stats = %s, want loaded=%d malformed=1", r.st.String(), n)
	}
	sum := 0
	for i, size := range obs.sizes {
		sum += size
		if size > batchSize || (i > 0 && i < len(obs.sizes)-1 && size != batchSize) {
			t.Fatalf("batch %d of %d holds %d events, want %d (sizes %v)", i, len(obs.sizes), size, batchSize, obs.sizes)
		}
	}
	if sum != n {
		t.Fatalf("batches hold %d events, want %d", sum, n)
	}
}
