package main

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func TestOpenScheduleIsASeededFunction(t *testing.T) {
	picks, offsets := openSchedule(1, openRate, 600)
	picks2, offsets2 := openSchedule(1, openRate, 600)
	if !reflect.DeepEqual(picks, picks2) || !reflect.DeepEqual(offsets, offsets2) {
		t.Fatal("same seed gave different requests or send times")
	}
	picks3, offsets3 := openSchedule(2, openRate, 600)
	if reflect.DeepEqual(picks, picks3) || reflect.DeepEqual(offsets, offsets3) {
		t.Fatal("a different seed gave the same requests or send times")
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			t.Fatalf("offset %d (%v) before offset %d (%v)", i, offsets[i], i-1, offsets[i-1])
		}
	}
	// Each one-second slot holds exactly openRate arrivals.
	perSecond := make([]int, int(600/openRate))
	for _, o := range offsets {
		perSecond[int(o/time.Second)]++
	}
	for s, c := range perSecond {
		if c != int(openRate) {
			t.Errorf("second %d holds %d arrivals, want %v", s, c, openRate)
		}
	}
	count := make([]int, len(openMix))
	for _, p := range picks {
		count[p]++
	}
	for i, c := range count {
		if c != len(picks)/len(openMix) {
			t.Errorf("scenario %d drawn %d times of %d", i, c, len(picks))
		}
	}
}

func TestClosedSequenceIsASeededFunction(t *testing.T) {
	a := closedSequence(7, "spatial", 60, len(spatialSlots))
	if !reflect.DeepEqual(a, closedSequence(7, "spatial", 60, len(spatialSlots))) {
		t.Fatal("same seed gave a different order")
	}
	if reflect.DeepEqual(a, closedSequence(8, "spatial", 60, len(spatialSlots))) {
		t.Fatal("a different seed gave the same order")
	}
	// Every block holds each slot once.
	for b := 0; b+len(spatialSlots) <= len(a); b += len(spatialSlots) {
		seen := make([]bool, len(spatialSlots))
		for _, v := range a[b : b+len(spatialSlots)] {
			if seen[v] {
				t.Fatalf("block at %d repeats slot %d", b, v)
			}
			seen[v] = true
		}
	}
}

func TestCompileKeysAreDistinctBalancedAndSeeded(t *testing.T) {
	keys := compileKeys(1)
	if !reflect.DeepEqual(keys, compileKeys(1)) {
		t.Fatal("same seed gave different keys")
	}
	if reflect.DeepEqual(keys, compileKeys(2)) {
		t.Fatal("a different seed gave the same keys")
	}
	if len(keys) != compileKeyCount {
		t.Fatalf("%d keys, want %d", len(keys), compileKeyCount)
	}
	ids := map[string]bool{}
	pairs := map[string]int{}
	for _, k := range keys {
		id := planID(k)
		if ids[id] {
			t.Errorf("key %s repeats", id)
		}
		ids[id] = true
		pairs[fmt.Sprintf("%s/%d", k.Network, k.Bits)]++
		if _, err := pipelineFor(k); err != nil {
			t.Errorf("key %s: %v", id, err)
		}
	}
	// Two mobilenetv2 keys per resnet18 key, each width equally often.
	for _, b := range keyBits {
		m, r := pairs[fmt.Sprintf("mobilenetv2/%d", b)], pairs[fmt.Sprintf("resnet18/%d", b)]
		if m != 4 || r != 2 {
			t.Errorf("width %d: %d mobilenetv2 and %d resnet18 keys, want 4 and 2", b, m, r)
		}
	}
}
