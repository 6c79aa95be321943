package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Ring slots are fixed-width words (ring.go), so span labels — workflow
// uuids, queue names — are stored as indices into a process-wide
// copy-on-write name table. Reads are one atomic pointer load and a map
// lookup with no allocations; inserts (first sighting of a label) clone
// the map under a mutex, the same discipline as the bp intern table.

// maxNames bounds the table so a label-cardinality explosion cannot grow
// memory without bound; labels past the cap collapse to index 0 ("").
const maxNames = 65536

type nameTable struct {
	mu     sync.Mutex
	byName atomic.Pointer[map[string]uint32]
	names  atomic.Pointer[[]string] // index -> name; append-only snapshots
}

var names nameTable

func init() {
	m := map[string]uint32{"": 0}
	ns := []string{""}
	names.byName.Store(&m)
	names.names.Store(&ns)
}

// nameIdx interns a label, returning its slot index.
func nameIdx(name string) uint32 {
	if name == "" {
		return 0
	}
	if idx, ok := (*names.byName.Load())[name]; ok {
		return idx
	}
	names.mu.Lock()
	defer names.mu.Unlock()
	old := *names.byName.Load()
	if idx, ok := old[name]; ok {
		return idx
	}
	if len(old) >= maxNames {
		return 0
	}
	idx := uint32(len(old))
	next := make(map[string]uint32, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = idx
	ns := append(append([]string(nil), *names.names.Load()...), name)
	names.byName.Store(&next)
	names.names.Store(&ns)
	return idx
}

// nameAt resolves a slot index back to its label.
func nameAt(idx uint32) string {
	ns := *names.names.Load()
	if int(idx) < len(ns) {
		return ns[idx]
	}
	return ""
}

// Watermark is one workflow's freshness high-water mark: the maximum
// event timestamp the archive has applied (and published) for it.
// Advance is a lock-free max-CAS, cheap enough for the per-event apply
// path; the freshness gauge (now − max) is computed at scrape time.
type Watermark struct {
	max atomic.Int64 // Unix nanoseconds; 0 = nothing applied yet
}

// Advance raises the watermark to ts if it is newer. Out-of-order
// applies (restart replays, multi-producer buses) leave it untouched.
func (w *Watermark) Advance(ts int64) {
	for {
		old := w.max.Load()
		if ts <= old || w.max.CompareAndSwap(old, ts) {
			return
		}
	}
}

// Max returns the newest applied event timestamp, or the zero time when
// nothing has been applied.
func (w *Watermark) Max() time.Time {
	ns := w.max.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

var mFreshness = telemetry.NewGaugeVec("stampede_trace_freshness_seconds",
	"Per-workflow data freshness: now minus the newest applied event timestamp. "+
		"Negative under scaled virtual engine clocks.", "workflow")

// maxWatermarks bounds per-workflow gauge cardinality; workflows past
// the cap share one overflow watermark so Advance stays cheap and
// correct in aggregate even when the gauge set is saturated.
const maxWatermarks = 4096

var watermarks struct {
	mu sync.Mutex
	by atomic.Pointer[map[string]*Watermark]
	of Watermark // shared overflow entry past maxWatermarks
}

func init() {
	m := map[string]*Watermark{}
	watermarks.by.Store(&m)
}

// WatermarkFor returns the workflow's watermark, creating (and
// registering its freshness gauge) on first sight. The archive caches
// the pointer per stripe, so steady state never touches the map.
func WatermarkFor(wf string) *Watermark {
	if w, ok := (*watermarks.by.Load())[wf]; ok {
		return w
	}
	watermarks.mu.Lock()
	defer watermarks.mu.Unlock()
	old := *watermarks.by.Load()
	if w, ok := old[wf]; ok {
		return w
	}
	if len(old) >= maxWatermarks {
		return &watermarks.of
	}
	w := &Watermark{}
	next := make(map[string]*Watermark, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[wf] = w
	watermarks.by.Store(&next)
	mFreshness.SetFunc(func() float64 {
		ns := w.max.Load()
		if ns == 0 {
			return 0
		}
		return float64(time.Now().UnixNano()-ns) / 1e9
	}, wf)
	return w
}

// WatermarkOf reports the workflow's watermark without creating one.
func WatermarkOf(wf string) (time.Time, bool) {
	w, ok := (*watermarks.by.Load())[wf]
	if !ok {
		return time.Time{}, false
	}
	return w.Max(), true
}
