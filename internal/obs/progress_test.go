package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCampaignProgressSnapshot(t *testing.T) {
	p := NewCampaignProgress("grid", 10)
	for _, i := range []int{0, 1, 2, 3} {
		p.PointStarted(i)
	}
	p.PointDone(1)
	p.PointDone(3)

	s := p.Snapshot()
	if s.Name != "grid" || s.Done != 2 || s.Total != 10 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.Percent != 20 {
		t.Fatalf("percent = %v, want 20", s.Percent)
	}
	if want := []int{0, 2}; fmt.Sprint(s.Running) != fmt.Sprint(want) {
		t.Fatalf("running = %v, want %v (sorted in-flight points)", s.Running, want)
	}
	if s.TrialsStarted != 4 {
		t.Fatalf("trialsStarted = %d, want 4", s.TrialsStarted)
	}
	if s.PointsPerSec <= 0 || s.ETASec <= 0 {
		t.Fatalf("rate/ETA absent after completions: %+v", s)
	}
	// ETA extrapolates linearly: remaining/rate.
	if got, want := s.ETASec*s.PointsPerSec, float64(s.Total-s.Done); got < want*0.99 || got > want*1.01 {
		t.Fatalf("ETA·rate = %v, want remaining points %v", got, want)
	}

	line := s.String()
	for _, frag := range []string{"progress: grid 2/10 points (20.0%)", "running [0 2]", "eta"} {
		if !strings.Contains(line, frag) {
			t.Fatalf("heartbeat line %q missing %q", line, frag)
		}
	}
}

// TestCampaignProgressDurability covers the crash-safety counters:
// resumed and cached points count as done but not toward throughput,
// retries surface in the snapshot and heartbeat, and everything is
// nil-receiver safe.
func TestCampaignProgressDurability(t *testing.T) {
	p := NewCampaignProgress("res", 10)
	p.PointResumed(0)
	p.PointResumed(1)
	p.PointCached(2)
	p.TrialRetried()
	p.TrialRetried()
	p.TrialRetried()
	p.PointStarted(3)
	p.PointDone(3)

	s := p.Snapshot()
	if s.Done != 4 || s.Resumed != 2 || s.CacheHits != 1 || s.Retries != 3 {
		t.Fatalf("snapshot: %+v", s)
	}
	// Only the one executed point feeds the rate; a rate computed over all
	// four would quadruple it.
	if s.PointsPerSec <= 0 {
		t.Fatalf("rate absent after an executed point: %+v", s)
	}
	if got, want := s.ETASec*s.PointsPerSec, float64(s.Total-s.Done); got < want*0.99 || got > want*1.01 {
		t.Fatalf("ETA·rate = %v, want remaining points %v (rate must exclude replayed points)", got, want)
	}

	line := s.String()
	for _, frag := range []string{"res 4/10 points", "resumed 2", "cached 1", "retries 3"} {
		if !strings.Contains(line, frag) {
			t.Fatalf("heartbeat line %q missing %q", line, frag)
		}
	}

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, frag := range []string{`"resumed":2`, `"cacheHits":1`, `"retries":3`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("snapshot JSON %s missing %s", data, frag)
		}
	}
	// Counters at zero stay off the wire and out of the heartbeat.
	clean := NewCampaignProgress("clean", 1)
	if data, _ := json.Marshal(clean); strings.Contains(string(data), "resumed") ||
		strings.Contains(string(data), "cacheHits") || strings.Contains(string(data), "retries") {
		t.Fatalf("zero counters leaked into JSON: %s", data)
	}

	var nilP *CampaignProgress
	nilP.PointResumed(0)
	nilP.PointCached(0)
	nilP.TrialRetried()
}

func TestCampaignProgressConcurrent(t *testing.T) {
	p := NewCampaignProgress("par", 64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * 8; i < (w+1)*8; i++ {
				p.PointStarted(i)
				p.PointDone(i)
			}
		}(w)
	}
	wg.Wait()
	s := p.Snapshot()
	if s.Done != 64 || len(s.Running) != 0 {
		t.Fatalf("after concurrent run: %+v", s)
	}
}

func TestHeartbeatFinalLine(t *testing.T) {
	p := NewCampaignProgress("hb", 2)
	var buf bytes.Buffer
	stop := p.Heartbeat(&buf, time.Hour) // ticker never fires; only the stop line
	p.PointDone(0)
	p.PointDone(1)
	stop()
	stop() // idempotent
	if got := buf.String(); !strings.Contains(got, "hb 2/2 points (100.0%)") {
		t.Fatalf("final heartbeat line: %q", got)
	}
}

func TestDebugServer(t *testing.T) {
	p := NewCampaignProgress("dbg", 4)
	p.PointStarted(2)
	p.PointDone(2)
	srv, err := StartDebugServer("127.0.0.1:0", p)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return body
	}

	var snaps []ProgressSnapshot
	if err := json.Unmarshal(get("/debug/progress"), &snaps); err != nil {
		t.Fatalf("/debug/progress not a JSON array: %v", err)
	}
	if len(snaps) != 1 || snaps[0].Name != "dbg" || snaps[0].Done != 1 || snaps[0].Total != 4 {
		t.Fatalf("/debug/progress: %+v", snaps)
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Fatal("/debug/vars missing memstats")
	}
	campaignVar, ok := vars["campaign"]
	if !ok {
		t.Fatal("/debug/vars missing campaign progress")
	}
	var viaExpvar []ProgressSnapshot
	if err := json.Unmarshal(campaignVar, &viaExpvar); err != nil {
		t.Fatalf("campaign expvar not a snapshot array: %v", err)
	}
	if len(viaExpvar) != 1 || viaExpvar[0].Name != "dbg" {
		t.Fatalf("campaign expvar: %+v", viaExpvar)
	}

	if body := get("/debug/pprof/goroutine?debug=1"); !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/goroutine: %q", body[:min(len(body), 80)])
	}
}

// TestDebugServerRestart covers the expvar publish-once trap: a second
// server (a new campaign in the same process) must not panic and must
// serve the new tracker.
func TestDebugServerRestart(t *testing.T) {
	first, err := StartDebugServer("127.0.0.1:0", NewCampaignProgress("one", 1))
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	second, err := StartDebugServer("127.0.0.1:0", NewCampaignProgress("two", 2))
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	resp, err := http.Get("http://" + second.Addr() + "/debug/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snaps []ProgressSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0].Name != "two" {
		t.Fatalf("restarted server serves %+v, want only \"two\"", snaps)
	}
}
