package main

import (
	"math"
	"testing"

	"commdb"
)

func TestDigestCanonicalisation(t *testing.T) {
	a := []result{{Core: []commdb.NodeID{1, 2}, Cost: 3}, {Core: []commdb.NodeID{4}, Cost: 5}}
	same := []result{{Core: []commdb.NodeID{1, 2}, Cost: 3}, {Core: []commdb.NodeID{4}, Cost: 5}}
	if digest(a) != digest(same) {
		t.Error("equal sequences digest differently")
	}
	if len(digest(a)) != 16 {
		t.Errorf("digest %q is not 16 hex digits", digest(a))
	}
	for name, b := range map[string][]result{
		"reordered communities": {a[1], a[0]},
		"reordered core":        {{Core: []commdb.NodeID{2, 1}, Cost: 3}, a[1]},
		// the same node IDs and costs, split differently between cores
		"moved core boundary": {{Core: []commdb.NodeID{1}, Cost: 3}, {Core: []commdb.NodeID{2, 4}, Cost: 5}},
		"one ulp of cost":     {{Core: []commdb.NodeID{1, 2}, Cost: math.Nextafter(3, 4)}, a[1]},
		"prefix":              a[:1],
	} {
		if digest(a) == digest(b) {
			t.Errorf("%s: digest did not change", name)
		}
	}
	if digest(nil) != digest([]result{}) {
		t.Error("an empty answer has two digests")
	}
}

func TestSameResults(t *testing.T) {
	got := []result{{Core: []commdb.NodeID{1}, Cost: 1}, {Core: []commdb.NodeID{2}, Cost: 2}, {Core: []commdb.NodeID{3}, Cost: 3}}
	if !sameResults(got, got[:2], false) {
		t.Error("a prefix of the reference must match")
	}
	if sameResults(got, got[:2], true) {
		t.Error("the reference ran dry after two, the answer has three")
	}
	if sameResults(got[:1], got[:2], false) {
		t.Error("the answer is shorter than the reference")
	}
	other := []result{{Core: []commdb.NodeID{1}, Cost: 1}, {Core: []commdb.NodeID{9}, Cost: 2}}
	if sameResults(got, other, false) {
		t.Error("a different core must not match")
	}
}
