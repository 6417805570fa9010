package main

import (
	"strings"
	"testing"
)

// TestStreamCounts checks that an empty key universe or an empty
// request stream is refused, naming the flag, instead of simulated.
func TestStreamCounts(t *testing.T) {
	for _, c := range []struct {
		keys, requests int
		flag           string // "" when the counts are accepted
	}{
		{1, 1, ""},
		{100000, 400000, ""},
		{0, 400000, "-keys"},
		{-3, 400000, "-keys"},
		{100000, 0, "-requests"},
		{100000, -1, "-requests"},
	} {
		err := streamCounts(c.keys, c.requests)
		if c.flag == "" {
			if err != nil {
				t.Errorf("streamCounts(%d, %d) = %v, want ok", c.keys, c.requests, err)
			}
			continue
		}
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("streamCounts(%d, %d) = %v, want an error naming %s", c.keys, c.requests, err, c.flag)
		}
	}
}
