package service

import (
	"math"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestShardRange is the shard contract: for any grid size and shard
// count, the ranges are contiguous, cover the grid exactly, and are
// balanced to within one point.
func TestShardRange(t *testing.T) {
	for _, points := range []int{0, 1, 2, 5, 12, 16, 97, 100} {
		for count := 1; count <= 6; count++ {
			prev := 0
			for i := 0; i < count; i++ {
				r := campaign.ShardRange(points, i, count)
				if r.Lo != prev {
					t.Fatalf("points=%d count=%d: shard %d starts at %d, want %d (gap or overlap)", points, count, i, r.Lo, prev)
				}
				if r.Hi < r.Lo {
					t.Fatalf("points=%d count=%d: shard %d inverted [%d,%d)", points, count, i, r.Lo, r.Hi)
				}
				size := r.Hi - r.Lo
				if min, max := points/count, (points+count-1)/count; size < min || size > max {
					t.Fatalf("points=%d count=%d: shard %d has %d points, want %d or %d", points, count, i, size, min, max)
				}
				prev = r.Hi
			}
			if prev != points {
				t.Fatalf("points=%d count=%d: shards end at %d, want %d", points, count, prev, points)
			}
		}
	}
}

func TestShardValidate(t *testing.T) {
	cases := []struct {
		shard *Shard
		ok    bool
	}{
		{nil, true},
		{&Shard{Index: 0, Count: 1}, true},
		{&Shard{Index: 2, Count: 3}, true},
		{&Shard{Index: 0, Count: 0}, false},
		{&Shard{Index: -1, Count: 2}, false},
		{&Shard{Index: 2, Count: 2}, false},
	}
	for _, c := range cases {
		err := c.shard.validate()
		if (err == nil) != c.ok {
			t.Errorf("validate(%s): err=%v, want ok=%v", c.shard, err, c.ok)
		}
	}
}

const testSpecJSON = `{
	"name": "svc-grid",
	"base": {"workload": "all-to-all", "zoneRadius": 20, "seed": 1},
	"axes": {
		"protocol": ["spms", "spin"],
		"nodes": [25, 49, 100],
		"seed": {"count": 2}
	}
}`

func TestParseJobSpec(t *testing.T) {
	t.Run("no shard", func(t *testing.T) {
		js, err := ParseJobSpec([]byte(testSpecJSON))
		if err != nil {
			t.Fatalf("ParseJobSpec: %v", err)
		}
		if js.Shard != nil {
			t.Fatalf("shard = %s, want nil", js.Shard)
		}
		if js.Spec.Name != "svc-grid" {
			t.Fatalf("name = %q", js.Spec.Name)
		}
	})
	t.Run("with shard", func(t *testing.T) {
		raw := strings.Replace(testSpecJSON, `"name":`, `"shard": {"index": 1, "count": 2}, "name":`, 1)
		js, err := ParseJobSpec([]byte(raw))
		if err != nil {
			t.Fatalf("ParseJobSpec: %v", err)
		}
		if js.Shard == nil || js.Shard.Index != 1 || js.Shard.Count != 2 {
			t.Fatalf("shard = %s, want 1/2", js.Shard)
		}
		if js.Spec.Name != "svc-grid" {
			t.Fatalf("name = %q", js.Spec.Name)
		}
	})
	t.Run("unknown top-level field still rejected", func(t *testing.T) {
		raw := strings.Replace(testSpecJSON, `"name":`, `"sahrd": {"index": 0, "count": 2}, "name":`, 1)
		if _, err := ParseJobSpec([]byte(raw)); err == nil {
			t.Fatal("misspelled shard key accepted — strict spec parsing lost")
		}
	})
	t.Run("unknown shard field rejected", func(t *testing.T) {
		raw := strings.Replace(testSpecJSON, `"name":`, `"shard": {"index": 0, "count": 2, "of": 3}, "name":`, 1)
		if _, err := ParseJobSpec([]byte(raw)); err == nil {
			t.Fatal("unknown shard field accepted")
		}
	})
	t.Run("invalid shard rejected", func(t *testing.T) {
		raw := strings.Replace(testSpecJSON, `"name":`, `"shard": {"index": 5, "count": 2}, "name":`, 1)
		if _, err := ParseJobSpec([]byte(raw)); err == nil {
			t.Fatal("out-of-range shard accepted")
		}
	})
	t.Run("garbage", func(t *testing.T) {
		if _, err := ParseJobSpec([]byte("not json")); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

func TestJobID(t *testing.T) {
	js, err := ParseJobSpec([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("ParseJobSpec: %v", err)
	}
	if got := jobID(3, js); got != "j0003-svc-grid" {
		t.Errorf("jobID = %q", got)
	}
	js.Shard = &Shard{Index: 1, Count: 2}
	if got := jobID(12, js); got != "j0012-svc-grid-s1of2" {
		t.Errorf("sharded jobID = %q", got)
	}
}

func TestSanitize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"stress-quick", "stress-quick"},
		{"a b/c", "a-b-c"},
		{"", "campaign"},
		{"Ü.x_9", "-.x_9"},
	}
	for _, c := range cases {
		if got := sanitize(c.in); got != c.want {
			t.Errorf("sanitize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSeqOf(t *testing.T) {
	cases := []struct {
		id   string
		want int
	}{
		{"j0042-stress", 42},
		{"j0003-svc-grid-s1of2", 3},
		{"j7", 7},
		{"x0042-foo", 0},
		{"j00x2-foo", 0},
		{"", 0},
	}
	for _, c := range cases {
		if got := seqOf(c.id); got != c.want {
			t.Errorf("seqOf(%q) = %d, want %d", c.id, got, c.want)
		}
	}
}

func TestClampOffset(t *testing.T) {
	cases := []struct {
		pointIndex, lo, hi, want int
	}{
		{0, 0, 12, 0},
		{5, 0, 12, 5},
		{12, 0, 12, 12},
		{99, 0, 12, 12},
		{-3, 0, 12, 0},
		{6, 6, 12, 0},
		{8, 6, 12, 2},
		{2, 6, 12, 0},
		{math.MaxInt, 0, 12, 12},
		{math.MinInt, 8, 12, 0},
	}
	for _, c := range cases {
		if got := clampOffset(c.pointIndex, c.lo, c.hi); got != c.want {
			t.Errorf("clampOffset(%d, %d, %d) = %d, want %d", c.pointIndex, c.lo, c.hi, got, c.want)
		}
	}
}
