package main

import (
	"math"
	"testing"
)

func TestAdmissionThreshold(t *testing.T) {
	for _, v := range []uint64{1, 8, math.MaxUint32} {
		got, err := admissionThreshold(uint(v))
		if err != nil || uint64(got) != v {
			t.Errorf("admissionThreshold(%d) = %d, %v; want it served as given", v, got, err)
		}
	}
	for _, v := range []uint64{0, math.MaxUint32 + 1, math.MaxUint32 + 2} {
		if got, err := admissionThreshold(uint(v)); err == nil {
			t.Errorf("admissionThreshold(%d) = %d; want an error", v, got)
		}
	}
}

// TestRuntimeCounts checks that -shards and -batch below 1 are refused
// instead of served as the runtime's defaults under a banner that
// names the bad value.
func TestRuntimeCounts(t *testing.T) {
	for _, c := range []struct {
		shards, batch int
		ok            bool
	}{
		{1, 1, true},
		{4, 64, true},
		{0, 64, false},
		{-2, 64, false},
		{4, 0, false},
		{4, -5, false},
	} {
		if err := runtimeCounts(c.shards, c.batch); (err == nil) != c.ok {
			t.Errorf("runtimeCounts(%d, %d) = %v, want ok=%v", c.shards, c.batch, err, c.ok)
		}
	}
}
