package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "epoch", Start: 0, End: 100},
		// Two parallel children overlapping on [30, 40), plus one that
		// starts before the parent and is clipped to it.
		{ID: 2, Parent: 1, Name: "work", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "work", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120},
		// A grandchild covers part of child 2 only.
		{ID: 5, Parent: 2, Name: "io", Start: 15, End: 25},
		// A span with no children keeps its whole duration.
		{ID: 6, Name: "other", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		// 100 - (union [10,60) = 50) - ([90,100) = 10)
		"epoch": 40,
		// child 2: 30 - 10 (grandchild); child 3: 30
		"work":  50,
		"late":  30,
		"io":    10,
		"other": 7,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	sp := tr.start("x", 0)
	if sp.id() != 0 {
		t.Fatal("nil tracer minted a span ID")
	}
	sp.end()
	if v := timed(tr, "y", 0, func() int { return 7 }); v != 7 {
		t.Fatal("timed dropped the result")
	}
	if tr.finished() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}
