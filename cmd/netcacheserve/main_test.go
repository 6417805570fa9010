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
