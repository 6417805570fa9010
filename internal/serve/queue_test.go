package serve

import "testing"

func TestSPSCTryOpsRespectCapacity(t *testing.T) {
	q := newSPSC[int](4)
	if _, ok := q.tryPop(); ok {
		t.Fatal("tryPop on empty ring succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.tryPush(i) {
			t.Fatalf("tryPush %d failed below capacity", i)
		}
	}
	if q.tryPush(99) {
		t.Fatal("tryPush succeeded on a full ring")
	}
	if v, ok := q.tryPop(); !ok || v != 0 {
		t.Fatalf("tryPop = %d,%v, want 0,true", v, ok)
	}
	if !q.tryPush(4) {
		t.Fatal("tryPush failed after a pop freed space")
	}
}

func TestSPSCCapacityRoundsUp(t *testing.T) {
	q := newSPSC[int](5)
	if len(q.buf) != 8 {
		t.Fatalf("capacity 5 rounded to %d, want 8", len(q.buf))
	}
	if !q.empty() {
		t.Fatal("fresh ring not empty")
	}
}
