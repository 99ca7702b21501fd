package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
)

// progressView fetches /debug/progress from a mux over reg and returns
// the raw JSON.
func progressView(t *testing.T, reg *ProgressRegistry) []byte {
	t.Helper()
	srv := httptest.NewServer(DebugMux(reg))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/debug/progress")
	if err != nil {
		t.Fatalf("GET /debug/progress: %v", err)
	}
	defer resp.Body.Close()
	var raw json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return raw
}

// TestRegistryViewShapes locks the /debug/progress wire shape: one JSON
// array of snapshots in registration order, whatever the number of
// campaigns — [] when idle, never null and never a bare object.
func TestRegistryViewShapes(t *testing.T) {
	reg := NewProgressRegistry()
	names := func() []string {
		t.Helper()
		raw := progressView(t, reg)
		var snaps []ProgressSnapshot
		if err := json.Unmarshal(raw, &snaps); err != nil || snaps == nil {
			t.Fatalf("view %s is not a JSON array (err %v)", raw, err)
		}
		out := make([]string, len(snaps))
		for i, s := range snaps {
			out[i] = s.Name
		}
		return out
	}
	check := func(want ...string) {
		t.Helper()
		if got := names(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("view = %v, want %v", got, want)
		}
	}

	check()
	removeA := reg.Register(NewCampaignProgress("alpha", 4))
	check("alpha")
	removeB := reg.Register(NewCampaignProgress("beta", 7))
	check("alpha", "beta")
	// Removal is idempotent.
	removeA()
	removeA()
	check("beta")
	removeB()
	check()
}

// TestRegistryNilSafety: nil registries and nil trackers register as
// no-ops, matching the package's nil-receiver conventions.
func TestRegistryNilSafety(t *testing.T) {
	var reg *ProgressRegistry
	remove := reg.Register(NewCampaignProgress("x", 1))
	remove() // must not panic
	if got := reg.Snapshots(); got != nil {
		t.Fatalf("nil registry Snapshots = %v", got)
	}
	live := NewProgressRegistry()
	remove = live.Register(nil)
	remove()
	if got := live.Snapshots(); len(got) != 0 {
		t.Fatalf("registering nil tracker added %v", got)
	}
}
