package main

import (
	"fmt"
	"sort"
)

// matcher pairs each event the loader makes visible with the stream line
// it came from. The loader keeps every workflow's events in arrival
// order, so the next visible event of a workflow must be the next unseen
// line of that workflow, type included; anything else is reordering,
// duplication or loss, and fails the run. Not safe for concurrent use.
type matcher struct {
	keys  []string // event type of each stream line
	byWF  map[string]*wfQueue
	total int
	seen  int
	errs  []string
	nerrs int
}

// maxProblems caps the mismatches a matcher describes; the rest are counted.
const maxProblems = 8

type wfQueue struct {
	idx []int32 // stream line indices of this workflow, in order
	pos int
}

func newMatcher(wfOf, keyOf func(i int) string, n int) *matcher {
	m := &matcher{keys: make([]string, n), byWF: map[string]*wfQueue{}, total: n}
	for i := 0; i < n; i++ {
		m.keys[i] = keyOf(i)
		wf := wfOf(i)
		q := m.byWF[wf]
		if q == nil {
			q = &wfQueue{}
			m.byWF[wf] = q
		}
		q.idx = append(q.idx, int32(i))
	}
	return m
}

func (m *matcher) fail(format string, args ...any) {
	m.nerrs++
	if len(m.errs) < maxProblems {
		m.errs = append(m.errs, fmt.Sprintf(format, args...))
	}
}

// match consumes the next expected line of workflow wf and returns its
// index, or -1 when the event does not match it.
func (m *matcher) match(wf, typ string) int {
	q := m.byWF[wf]
	if q == nil {
		m.fail("event %s for unknown workflow %q", typ, wf)
		return -1
	}
	if q.pos >= len(q.idx) {
		m.fail("workflow %s: extra event %s after its last line", wf, typ)
		return -1
	}
	i := int(q.idx[q.pos])
	if m.keys[i] != typ {
		m.fail("workflow %s: line %d is %s but the loader made %s visible", wf, i, m.keys[i], typ)
		return -1
	}
	q.pos++
	m.seen++
	return i
}

// missing returns how many lines were never matched.
func (m *matcher) missing() int { return m.total - m.seen }

// problems lists the mismatches plus, when lines are missing, the first
// workflows (by uuid) that still expect one.
func (m *matcher) problems() []string {
	out := append([]string(nil), m.errs...)
	if m.nerrs > len(m.errs) {
		out = append(out, fmt.Sprintf("... %d more mismatches", m.nerrs-len(m.errs)))
	}
	if miss := m.missing(); miss > 0 {
		var wfs []string
		for wf, q := range m.byWF {
			if q.pos < len(q.idx) {
				wfs = append(wfs, wf)
			}
		}
		sort.Strings(wfs)
		if len(wfs) > 3 {
			wfs = wfs[:3]
		}
		out = append(out, fmt.Sprintf("%d lines never became visible (e.g. workflows %v)", miss, wfs))
	}
	return out
}

// reset rewinds every workflow so the same input can be matched again.
func (m *matcher) reset() {
	for _, q := range m.byWF {
		q.pos = 0
	}
	m.seen, m.nerrs, m.errs = 0, 0, nil
}
