package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent's end
		{ID: 5, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{ID: 6, Name: "open", Start: 50, End: -1},
	}
	self := selfTimes(spans)
	// root: 100 minus [10,60) and [90,100) = 100 - 50 - 10.
	want := []int64{40, 20, 30, 30, 10, 0}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
	sum := summarize(spans)
	if s := sum["root"]; s.Count != 1 || !near(s.TotalS, 100e-9) || !near(s.SelfS, 40e-9) {
		t.Errorf("root summary = %+v", s)
	}
	if _, ok := sum["open"]; ok {
		t.Error("an unclosed span was summarized")
	}
}

func TestTracerPausedAndNilRecordNothing(t *testing.T) {
	var none *tracer
	none.end(none.begin("x", 0), nil)
	none.record("x", 0, time.Now(), time.Now())

	tr := newTracer()
	tr.setPaused(true)
	if id := tr.begin("x", 0); id != 0 {
		t.Fatalf("paused tracer opened span %d", id)
	}
	tr.record("x", 0, time.Now(), time.Now())
	tr.setPaused(false)
	root := tr.begin("root", 0)
	tr.end(tr.begin("child", root), map[string]float64{"n": 1})
	tr.end(root, nil)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Attrs["n"] != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s not closed", s.Name)
		}
	}
}
