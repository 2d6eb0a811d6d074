package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 0, 10),
		sp(2, 1, "a", 1, 4),
		sp(3, 1, "b", 3, 6), // overlaps a over [3,4]: covered is [1,6]
		sp(4, 1, "c", 8, 9),
	}
	self := selfTimes(spans)
	if got, want := self[1], time.Duration(10-5-1); got != want {
		t.Errorf("parent self time %v, want %v", got, want)
	}
	for id, want := range map[int]time.Duration{2: 3, 3: 3, 4: 1} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 10, 20),
		sp(2, 1, "early", 5, 12),   // counts [10,12]
		sp(3, 1, "late", 18, 30),   // counts [18,20]
		sp(4, 1, "inside", 11, 19), // joins both into [10,20]
	}
	if got := selfTimes(spans)[1]; got != 0 {
		t.Errorf("parent fully covered by clipped children, self time %v", got)
	}
}

func TestSelfTimeIgnoresGrandchildren(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 0, 10),
		sp(2, 1, "child", 0, 4),
		sp(3, 2, "grandchild", 5, 9), // outside child, but not the job's own child
	}
	if got := selfTimes(spans)[1]; got != 6 {
		t.Errorf("self time %v, want 6", got)
	}
}

func TestLayerTableSumsByName(t *testing.T) {
	spans := []span{
		sp(1, 0, "job", 0, 10),
		sp(2, 1, "run", 0, 6),
		sp(3, 0, "job", 10, 14),
		sp(4, 3, "run", 10, 11),
	}
	rows := layerTable(spans)
	want := []layerRow{ // equal self time: ordered by name
		{Name: "job", Count: 2, Total: 14, Self: 7},
		{Name: "run", Count: 2, Total: 7, Self: 7},
	}
	if len(rows) != len(want) || rows[0] != want[0] || rows[1] != want[1] {
		t.Fatalf("layer table %+v, want %+v", rows, want)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.begin("x", 0, 0).end(); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	if id := tr.add("x", 0, 0, time.Now(), time.Now()); id != 0 {
		t.Fatalf("nil tracer add returned span id %d", id)
	}
}
