package campaign

import (
	"bytes"
	"testing"
)

// TestRunRange is the point-range contract behind cross-process sharding:
// runs restricted to contiguous ranges — an empty one included, which runs
// nothing — concatenate byte-identically to a whole-grid run, and invalid
// ranges fail before any sink sees a point.
func TestRunRange(t *testing.T) {
	c, err := Expand(gridSpec(t))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	var whole bytes.Buffer
	if _, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&whole)}, Run: stubRun}); err != nil {
		t.Fatalf("whole run: %v", err)
	}

	var parts bytes.Buffer
	for _, r := range []PointRange{{0, 5}, {5, 5}, {5, 6}, {6, 12}} {
		r := r
		results, err := c.Run(RunOptions{Workers: 4, Sinks: []Sink{NewJSONLSink(&parts)}, Run: stubRun, Range: &r})
		if err != nil {
			t.Fatalf("range %+v: %v", r, err)
		}
		for i, rs := range results {
			inRange := i >= r.Lo && i < r.Hi
			if (rs != nil) != inRange {
				t.Fatalf("range %+v: results[%d] populated=%v, want %v", r, i, rs != nil, inRange)
			}
		}
	}
	if !bytes.Equal(parts.Bytes(), whole.Bytes()) {
		t.Fatalf("concatenated range output diverges from whole-grid run:\nparts:\n%s\nwhole:\n%s", parts.Bytes(), whole.Bytes())
	}

	for _, r := range []PointRange{{-1, 4}, {0, 13}, {5, 4}} {
		r := r
		mem := &MemorySink{}
		if _, err := c.Run(RunOptions{Sinks: []Sink{mem}, Run: stubRun, Range: &r}); err == nil {
			t.Fatalf("invalid range %+v accepted", r)
		}
		if len(mem.Points) != 0 {
			t.Fatalf("invalid range %+v streamed %d points", r, len(mem.Points))
		}
	}
}

// TestShardRangeEmptyGrid: sharding a grid smaller than the shard count
// yields empty (but valid) ranges for the surplus shards.
func TestShardRangeEmptyGrid(t *testing.T) {
	r := ShardRange(2, 3, 4)
	if r.Lo != 1 || r.Hi != 2 {
		t.Fatalf("ShardRange(2,3,4) = %+v", r)
	}
	r = ShardRange(2, 2, 4)
	if r.Lo != r.Hi {
		t.Fatalf("surplus shard not empty: %+v", r)
	}
}
