package main

import (
	"strings"
	"testing"
)

// stream is a small two-workflow input: a, b interleaved.
var stream = []struct{ wf, typ string }{
	{"a", "stampede.xwf.plan"},
	{"b", "stampede.xwf.plan"},
	{"a", "stampede.xwf.start"},
	{"a", "stampede.job_inst.main.start"},
	{"b", "stampede.xwf.start"},
	{"a", "stampede.xwf.end"},
	{"b", "stampede.xwf.end"},
}

func streamMatcher() *matcher {
	return newMatcher(func(i int) string { return stream[i].wf }, func(i int) string { return stream[i].typ }, len(stream))
}

func TestMatcherAcceptsPerWorkflowOrder(t *testing.T) {
	m := streamMatcher()
	// Workflows may interleave differently from the stream (they load on
	// different shards); each workflow's own order must hold.
	for _, i := range []int{1, 4, 6, 0, 2, 3, 5} {
		if got := m.match(stream[i].wf, stream[i].typ); got != i {
			t.Fatalf("event %d matched line %d", i, got)
		}
	}
	if m.missing() != 0 || len(m.problems()) != 0 {
		t.Fatalf("clean run reported %d missing, problems %v", m.missing(), m.problems())
	}
}

func TestMatcherCatchesReorderedEvent(t *testing.T) {
	m := streamMatcher()
	m.match("a", "stampede.xwf.plan")
	// a's start and job start swapped.
	if got := m.match("a", "stampede.job_inst.main.start"); got != -1 {
		t.Fatalf("out-of-order event matched line %d", got)
	}
	if p := m.problems(); len(p) == 0 || !strings.Contains(p[0], "line 2 is stampede.xwf.start") {
		t.Fatalf("problems = %v, want the reordering named", p)
	}
}

func TestMatcherCatchesMissingEvent(t *testing.T) {
	m := streamMatcher()
	for i, s := range stream {
		if i == 3 {
			continue // lost
		}
		m.match(s.wf, s.typ)
	}
	if m.missing() == 0 {
		t.Fatal("a lost event went unnoticed")
	}
	if len(m.problems()) == 0 {
		t.Fatal("a lost event produced no problem report")
	}
}

func TestMatcherCatchesUnknownAndExtraEvents(t *testing.T) {
	m := streamMatcher()
	if m.match("zz", "stampede.xwf.plan") != -1 {
		t.Fatal("event of an unknown workflow matched")
	}
	m.reset()
	for _, s := range stream {
		m.match(s.wf, s.typ)
	}
	if m.match("b", "stampede.xwf.end") != -1 || len(m.problems()) == 0 {
		t.Fatal("a duplicate event after the workflow's last line went unnoticed")
	}
}

// The Tap must see every line intact and in send order: a gap is counted
// as lines lost before the loader, anything else as an error.
func TestTapCountsLostAndAlteredLines(t *testing.T) {
	in, err := segmentInput(5, 0, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(in, in.newMatcher(), false)
	for _, i := range []int{0, 1, 3, 4} { // line 2 lost on the way
		if err := p.tap(in.lines[i].Body); err != nil {
			t.Fatal(err)
		}
	}
	if p.tapSkipped != 1 || p.tapErrs != 0 || p.tapAt[2] != 0 || p.tapAt[3] == 0 {
		t.Fatalf("after losing line 2: skipped %d, errors %d", p.tapSkipped, p.tapErrs)
	}
	p.tap([]byte("ts=2012-03-13T12:00:00.000000Z event=stampede.xwf.start altered=1"))
	p.tap(in.lines[1].Body) // delivered twice
	if p.tapErrs != 2 || len(p.problems()) == 0 {
		t.Fatalf("altered and repeated lines: %d errors, problems %v", p.tapErrs, p.problems())
	}
}
