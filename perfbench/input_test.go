package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameInput(t *testing.T) {
	a, err := segmentInput(7, 0, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := segmentInput(7, 0, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.joined(), b.joined()) {
		t.Fatal("the same seed built different inputs")
	}
	for i := range a.due {
		if a.due[i] != b.due[i] {
			t.Fatalf("line %d scheduled at %v and %v", i, a.due[i], b.due[i])
		}
	}
}

func TestDifferentSeedDifferentInput(t *testing.T) {
	a, err := segmentInput(7, 0, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, other := range []struct {
		seed int64
		seg  int
	}{{8, 0}, {7, 1}} {
		b, err := segmentInput(other.seed, other.seg, 2000, 2)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a.joined(), b.joined()) {
			t.Errorf("seed 7 segment 0 and seed %d segment %d built the same input", other.seed, other.seg)
		}
	}
}

func TestInputBookkeeping(t *testing.T) {
	in, err := segmentInput(3, 0, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.lines) < 4000 {
		t.Fatalf("2s at 2000/s built only %d lines", len(in.lines))
	}
	firsts := 0
	for i, ln := range in.lines {
		if in.first[i] {
			firsts++
		}
		if in.last[ln.WF] < i {
			t.Fatalf("line %d of %s lies after its workflow's recorded last line", i, ln.WF)
		}
	}
	if firsts != len(in.wfs) || len(in.last) != len(in.wfs) {
		t.Fatalf("%d first lines, %d last lines, %d workflows", firsts, len(in.last), len(in.wfs))
	}
}
