package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "project", Parent: 0, Start: 10, End: 40},
		{Name: "enumerate", Parent: 0, Start: 40, End: 90},
		{Name: "getcommunity", Parent: 2, Start: 50, End: 60},
		{Name: "getcommunity", Parent: 2, Start: 55, End: 70}, // overlaps its sibling
		{Name: "op", Parent: -1, Start: 200, End: 230},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		"op":           20 + 30, // 100 - (30 + 50), and a childless root
		"project":      30,
		"enumerate":    30, // 50 minus the union [50,70) of its children
		"getcommunity": 25, // 10 + 15: both count, their parent sees the union
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if got := rootTime(spans); got != 130 {
		t.Errorf("rootTime = %d, want 130", got)
	}
}

func TestLedgerMustSumToWall(t *testing.T) {
	nested := []span{
		{Name: "op", Parent: -1, Start: 0, End: 1000},
		{Name: "a", Parent: 0, Start: 0, End: 400},
		{Name: "b", Parent: 0, Start: 400, End: 990},
	}
	if err := checkLedger(selfTimes(nested), rootTime(nested)); err != nil {
		t.Errorf("nested spans: %v", err)
	}
	// A child recorded under the wrong parent is time counted twice.
	stray := append(nested[:3:3], span{Name: "c", Parent: 1, Start: 500, End: 900})
	if err := checkLedger(selfTimes(stray), rootTime(stray)); err == nil {
		t.Error("a child outside its parent went unnoticed")
	}
	if err := checkLedger(map[string]int64{"a": 981}, 1000); err != nil {
		t.Errorf("1.9%% off: %v", err)
	}
	if err := checkLedger(map[string]int64{"a": 979}, 1000); err == nil {
		t.Error("2.1% off went unnoticed")
	}
	if err := checkLedger(nil, 0); err != nil {
		t.Errorf("empty ledger: %v", err)
	}
}

func TestRecorderAndMerge(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", 0, -1)) // a nil recorder records nothing and does not panic

	// Two recorders whose clocks started a second apart record at the
	// same moment.
	a, b := newRecorder(), newRecorder()
	b.t0 = a.t0.Add(-time.Second)
	for _, r := range []*recorder{a, b} {
		root := r.begin("op", 0, -1)
		r.end(r.begin("child", 0, root))
		r.end(root)
	}
	all := mergeSpans(a, b)
	if len(all) != 4 {
		t.Fatalf("%d spans, want 4", len(all))
	}
	if all[3].Parent != 2 || all[1].Parent != 0 {
		t.Errorf("parents %d and %d, want 0 and 2", all[1].Parent, all[3].Parent)
	}
	if d := time.Duration(all[2].Start - all[0].Start); d < 0 || d > time.Second/2 {
		t.Errorf("spans recorded together are %v apart on the merged clock", d)
	}
	if err := checkLedger(selfTimes(all), rootTime(all)); err != nil {
		t.Error(err)
	}
}
