package campaign

import (
	"errors"
	"io"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
)

// replaySpec is the campaign each client of the campaign daemon's
// service-replay benchmark submits: 16 nodes, {spms, spin} × 25 seeds.
const replaySpec = `{"name":"replay-c0","base":{"workload":"all-to-all","nodes":16,"zoneRadius":20,"packetsPerNode":2,"drain":"2s","seed":1000},"axes":{"protocol":["spms","spin"],"seed":{"count":25}}}`

// maxCachedReplayAllocsPerPoint bounds what one cache-served point costs
// a Run into a JSONL sink: its canonical bytes and hash, the cache read
// and decode (3 of them: the entry's path, its NUL-terminated copy for
// open, and the replicate vector), and its record. A replay measured 16.5
// (827 per 50-point Run) when the bound was set; reading the entry with
// os.ReadFile and decoding it with json.Unmarshal makes it 30.5.
const maxCachedReplayAllocsPerPoint = 20

// TestCachedReplayAllocs is the cached-replay allocation guard (run in
// CI): replaying the daemon's client campaign from a warm result cache
// into a JSONL sink makes at most maxCachedReplayAllocsPerPoint mallocs
// per point. A point's scenario is encoded once, for its hash, and its
// record reuses those bytes; a second encoding or a per-field nested
// marshal shows up here as a dozen or more per point.
func TestCachedReplayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	c, err := Expand(specFromJSON(t, replaySpec))
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	cache, err := checkpoint.OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	if _, err := c.Run(RunOptions{Workers: 1, Cache: cache}); err != nil {
		t.Fatalf("filling the cache: %v", err)
	}
	miss := func(experiment.Scenario) (experiment.Result, error) {
		return experiment.Result{}, errors.New("cache miss in the replay")
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := c.Run(RunOptions{Workers: 1, Sinks: []Sink{NewJSONLSink(io.Discard)}, Cache: cache, Run: miss}); err != nil {
			t.Fatalf("replay: %v", err)
		}
	})
	perPoint := allocs / float64(len(c.Points))
	t.Logf("%.0f allocations per %d-point replay, %.1f per point (bound %d)", allocs, len(c.Points), perPoint, maxCachedReplayAllocsPerPoint)
	if perPoint > maxCachedReplayAllocsPerPoint {
		t.Fatalf("a cached replay made %.1f allocations per point, want at most %d", perPoint, maxCachedReplayAllocsPerPoint)
	}
}
