package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
)

// stubRun tags each result with its scenario, no simulation — the same
// stub the campaign runner tests use, so byte-identity assertions hold
// across packages.
func stubRun(sc experiment.Scenario) (experiment.Result, error) {
	return experiment.Result{Items: sc.Nodes, EnergyPerPacket: float64(sc.Seed)}, nil
}

// gatedRun returns an executor for testSpecJSON's grid that runs points
// below open straight through stubRun and blocks every later point until
// release is called. Gating on the trial's grid point rather than on call
// order keeps the open prefix streamable however the pool's workers
// interleave. t.Cleanup releases the gate as well, so a failed assertion
// ends the test instead of leaving workers blocked.
func gatedRun(t *testing.T, open int) (run func(experiment.Scenario) (experiment.Result, error), release func()) {
	t.Helper()
	js, err := ParseJobSpec([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("ParseJobSpec: %v", err)
	}
	c, err := campaign.Expand(js.Spec)
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	index := make(map[experiment.Scenario]int, len(c.Points))
	for _, p := range c.Points {
		index[p.Scenario] = p.Index
	}
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	run = func(sc experiment.Scenario) (experiment.Result, error) {
		i, ok := index[sc]
		if !ok {
			return experiment.Result{}, fmt.Errorf("scenario outside the test grid: %+v", sc)
		}
		if i >= open {
			<-gate
		}
		return stubRun(sc)
	}
	return run, release
}

// waitTerminal blocks (on the job's wake channel, no polling) until the
// job reaches a terminal state and returns it.
func waitTerminal(t *testing.T, j *Job) JobState {
	t.Helper()
	for {
		_, state, changed := j.next(0)
		if state.Terminal() {
			return state
		}
		<-changed
	}
}

// streamBytes concatenates the job's buffered JSONL records.
func streamBytes(j *Job) []byte {
	recs, _, _ := j.next(0)
	var buf bytes.Buffer
	for _, r := range recs {
		buf.Write(r)
	}
	return buf.Bytes()
}

// referenceBytes runs the whole test grid in one memory-only job and
// returns its JSONL stream — the byte-identity reference.
func referenceBytes(t *testing.T) []byte {
	t.Helper()
	m := NewManager(Config{Run: stubRun})
	j, err := m.Submit([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if state := waitTerminal(t, j); state != JobDone {
		t.Fatalf("reference job state = %s, err %q", state, j.Err())
	}
	return streamBytes(j)
}

func TestSubmitRunsToDone(t *testing.T) {
	m := NewManager(Config{Run: stubRun})
	j, err := m.Submit([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if state := waitTerminal(t, j); state != JobDone {
		t.Fatalf("state = %s, err %q", state, j.Err())
	}
	st := j.Status()
	if st.Grid != 12 || st.Points != 12 || st.Streamed != 12 || st.Lo != 0 || st.Hi != 12 {
		t.Fatalf("status = %+v, want 12-point whole grid fully streamed", st)
	}
	lines := bytes.Count(streamBytes(j), []byte("\n"))
	if lines != 12 {
		t.Fatalf("%d JSONL lines, want 12", lines)
	}
	if got := m.Jobs(); len(got) != 1 || got[0] != j {
		t.Fatalf("Jobs() = %v", got)
	}
}

// TestFailedJobError pins a failed job's error text, the status field GET
// /v1/jobs/{id} reports: Campaign.Run's error, which names the campaign
// once, here for a journal that cannot be opened.
func TestFailedJobError(t *testing.T) {
	js, err := ParseJobSpec([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("ParseJobSpec: %v", err)
	}
	root := t.TempDir()
	journal := checkpoint.JournalPath(filepath.Join(root, jobID(1, js)))
	if err := os.MkdirAll(journal, 0o755); err != nil {
		t.Fatal(err)
	}
	_, openErr := os.OpenFile(journal, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o644)
	if openErr == nil {
		t.Fatal("a directory opened as the journal")
	}
	m := NewManager(Config{CheckpointRoot: root, Run: stubRun})
	defer m.Drain()
	j, err := m.Submit([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if state := waitTerminal(t, j); state != JobFailed {
		t.Fatalf("state = %s, want %s", state, JobFailed)
	}
	want := `campaign "svc-grid": checkpoint: open journal: ` + openErr.Error()
	if got := j.Status().Error; got != want {
		t.Fatalf("job error = %q\nwant %q", got, want)
	}
}

// TestShardedByteIdentical is the shard determinism contract end to end:
// two shard jobs of the same spec, sharing one content-addressed cache,
// concatenate — in shard order — to exactly the bytes of a single
// whole-grid run.
func TestShardedByteIdentical(t *testing.T) {
	want := referenceBytes(t)

	cache, err := checkpoint.OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	m := NewManager(Config{Run: stubRun, Cache: cache, Workers: 3})
	var parts [][]byte
	for i := 0; i < 2; i++ {
		raw := strings.Replace(testSpecJSON,
			`"name":`, fmt.Sprintf(`"shard": {"index": %d, "count": 2}, "name":`, i), 1)
		j, err := m.Submit([]byte(raw))
		if err != nil {
			t.Fatalf("Submit shard %d: %v", i, err)
		}
		if state := waitTerminal(t, j); state != JobDone {
			t.Fatalf("shard %d state = %s, err %q", i, state, j.Err())
		}
		st := j.Status()
		if st.Points != 6 || st.Streamed != 6 {
			t.Fatalf("shard %d status = %+v, want 6 of 12 points", i, st)
		}
		parts = append(parts, streamBytes(j))
	}
	got := bytes.Join(parts, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("concatenated shard output diverges from single-run output:\nshards:\n%s\nsingle:\n%s", got, want)
	}
}

// TestRecoverResumesKilledJob is the daemon-restart contract: a job is
// cancelled mid-flight (standing in for a killed daemon — the journal
// state is identical), a second manager over the same checkpoint root
// recovers it, executes only the missing points, and the recovered stream
// is byte-identical to an uninterrupted run.
func TestRecoverResumesKilledJob(t *testing.T) {
	want := referenceBytes(t)
	root := t.TempDir()

	// First daemon: the executor completes the first four points and
	// blocks the rest — freezing the job mid-flight with a partial journal.
	blockingRun, release := gatedRun(t, 4)
	m1 := NewManager(Config{CheckpointRoot: root, Run: blockingRun, Workers: 2})
	j1, err := m1.Submit([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for { // wait until the first four points are streamed (and journaled)
		recs, state, changed := j1.next(0)
		if state.Terminal() {
			t.Fatalf("job finished before it could be interrupted (state %s)", state)
		}
		if len(recs) >= 4 {
			break
		}
		<-changed
	}
	if _, err := m1.Cancel(j1.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	release() // unblock the in-flight points so the drain finishes
	m1.Drain()
	if state := j1.State(); state != JobCancelled {
		t.Fatalf("interrupted job state = %s, want %s", state, JobCancelled)
	}
	if got := len(streamBytes(j1)); got == 0 || got >= len(want) {
		t.Fatalf("interrupted job streamed %d bytes, want partial (0 < n < %d)", got, len(want))
	}

	// Rejected while draining.
	if _, err := m1.Submit([]byte(testSpecJSON)); err != ErrDraining {
		t.Fatalf("Submit while draining: err = %v, want ErrDraining", err)
	}

	// Second daemon over the same root: Recover restarts the job from its
	// journal and runs it to done.
	m2 := NewManager(Config{CheckpointRoot: root, Run: stubRun, Workers: 2})
	recovered, err := m2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(recovered) != 1 || recovered[0].ID() != j1.ID() {
		t.Fatalf("recovered %v, want exactly job %s", recovered, j1.ID())
	}
	j2 := recovered[0]
	if state := waitTerminal(t, j2); state != JobDone {
		t.Fatalf("recovered job state = %s, err %q", state, j2.Err())
	}
	if got := streamBytes(j2); !bytes.Equal(got, want) {
		t.Fatalf("recovered stream diverges from uninterrupted run:\nrecovered:\n%s\nreference:\n%s", got, want)
	}

	// A fresh submission on the recovered manager must not collide with
	// the recovered id's sequence number.
	j3, err := m2.Submit([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("Submit after recover: %v", err)
	}
	if j3.ID() == j2.ID() {
		t.Fatalf("fresh submission reused recovered job id %s", j3.ID())
	}
	waitTerminal(t, j3)
	m2.Drain()
}

// sseEvent is one parsed SSE event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// parseSSE splits an event-stream body into events.
func parseSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseEvent{}) {
				events = append(events, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read SSE: %v", err)
	}
	return events
}

func TestHTTPJobLifecycle(t *testing.T) {
	want := referenceBytes(t)

	m := NewManager(Config{Run: stubRun})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Drain()

	// Submit.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST status = %d, want 201", resp.StatusCode)
	}
	if st.ID == "" || st.Grid != 12 {
		t.Fatalf("submitted status = %+v", st)
	}

	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatalf("job %s not in manager", st.ID)
	}
	waitTerminal(t, j)

	// Status.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET status: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp.Body.Close()
	if st.State != JobDone || st.Streamed != 12 {
		t.Fatalf("status = %+v, want done with 12 streamed", st)
	}

	// Plain JSONL stream: byte-identical to the CLI-path reference.
	resp, err = http.Get(srv.URL + "/v1/jobs/" + st.ID + "/results")
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("results Content-Type = %q", ct)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("streamed body diverges from reference:\ngot:\n%s\nwant:\n%s", body, want)
	}

	// SSE stream: same records framed as events, ids are point indices,
	// terminated by an "end" control event carrying the state.
	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/results", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET SSE: %v", err)
	}
	events := parseSSE(t, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	if len(events) != 13 {
		t.Fatalf("%d SSE events, want 12 records + end", len(events))
	}
	var rebuilt bytes.Buffer
	for i, ev := range events[:12] {
		if ev.id != fmt.Sprint(i) {
			t.Fatalf("event %d has id %q", i, ev.id)
		}
		rebuilt.WriteString(ev.data)
		rebuilt.WriteByte('\n')
	}
	if !bytes.Equal(rebuilt.Bytes(), want) {
		t.Fatalf("SSE data diverges from reference")
	}
	if end := events[12]; end.event != "end" || end.data != string(JobDone) {
		t.Fatalf("terminal event = %+v, want end/done", end)
	}

	// Reconnect with Last-Event-ID resumes after the named point; an id
	// at or past the last point resumes at the end, even at the int limit.
	for _, c := range []struct {
		last    string
		events  int
		firstID string
	}{
		{"7", 5, "8"}, // points 8..11 + end
		{"11", 1, ""},
		{strconv.Itoa(math.MaxInt), 1, ""},
	} {
		req, _ = http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/results", nil)
		req.Header.Set("Accept", "text/event-stream")
		req.Header.Set("Last-Event-ID", c.last)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET SSE resume after %s: %v", c.last, err)
		}
		events = parseSSE(t, resp.Body)
		resp.Body.Close()
		if len(events) != c.events {
			t.Fatalf("resume after %s: %d events, want %d", c.last, len(events), c.events)
		}
		if events[0].id != c.firstID {
			t.Fatalf("resume after %s starts at id %q, want %q", c.last, events[0].id, c.firstID)
		}
	}

	// List.
	resp, err = http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET list: %v", err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// Error paths.
	resp, _ = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("not json"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, _ = http.Get(srv.URL + "/v1/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestHTTPBadAxisBody checks the whole 400 response to a submission
// that fails before a job exists: an axis that does not decode (the spec
// parser's text, under one "campaign: " prefix) and a point that does not
// validate (Expand's text, under the campaign's name). The second spells
// only a switch in spmsConfig, which replaces core.DefaultConfig whole,
// so its SPMS point has no timeouts.
func TestHTTPBadAxisBody(t *testing.T) {
	m := NewManager(Config{Run: stubRun})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Drain()

	for _, tc := range []struct{ spec, want string }{
		{`{"name":"x","axes":{"nodes":{"from":10,"to":5}}}`,
			"{\n  \"error\": \"campaign: parse spec: int axis range [10, 5] is empty\"\n}\n"},
		{`{"name":"partial","base":{"protocol":"spms","workload":"all-to-all","nodes":49,"zoneRadius":20,"spmsConfig":{"disableRelayADV":true}}}`,
			"{\n  \"error\": \"campaign \\\"partial\\\": point 0 (): experiment: core: non-positive TOutADV 0s\"\n}\n"},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.spec))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		if resp.StatusCode != http.StatusBadRequest || string(body) != tc.want {
			t.Fatalf("POST %s = %d %q, want 400 %q", tc.spec, resp.StatusCode, body, tc.want)
		}
	}
	if jobs := m.Jobs(); len(jobs) != 0 {
		t.Fatalf("a rejected submission registered %d jobs", len(jobs))
	}
}

// TestHTTPCancelDrains exercises DELETE: the response is 202, in-flight
// points finish, and the job lands in cancelled with a partial stream.
func TestHTTPCancelDrains(t *testing.T) {
	blockingRun, release := gatedRun(t, 2)
	m := NewManager(Config{Run: blockingRun, Workers: 2})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(testSpecJSON))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var st JobStatus
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	j, _ := m.Get(st.ID)
	for { // let it make some progress first
		recs, _, changed := j.next(0)
		if len(recs) >= 2 {
			break
		}
		<-changed
	}

	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+st.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d, want 202", resp.StatusCode)
	}
	release()
	if state := waitTerminal(t, j); state != JobCancelled {
		t.Fatalf("state after DELETE = %s, want %s", state, JobCancelled)
	}
	if st := j.Status(); st.Streamed == 0 || st.Streamed >= 12 {
		t.Fatalf("cancelled job streamed %d, want a partial prefix", st.Streamed)
	}
	m.Drain()

	// A draining manager refuses new submissions over HTTP with 503.
	resp, _ = http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(testSpecJSON))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit-while-draining status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestLiveSSEFollowsJob verifies the stream stays open on a running job
// and delivers records as they complete, not just after the fact.
func TestLiveSSEFollowsJob(t *testing.T) {
	gate := make(chan struct{})
	var calls atomic.Int32
	gatedRun := func(sc experiment.Scenario) (experiment.Result, error) {
		if calls.Add(1) > 3 {
			<-gate
		}
		return stubRun(sc)
	}
	m := NewManager(Config{Run: gatedRun, Workers: 1})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	defer m.Drain()

	j, err := m.Submit([]byte(testSpecJSON))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+j.ID()+"/results", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET SSE: %v", err)
	}
	defer resp.Body.Close()

	// The first three records arrive while the job is still running.
	br := bufio.NewReader(resp.Body)
	seen := 0
	for seen < 3 {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("read SSE: %v", err)
		}
		if strings.HasPrefix(line, "data: ") {
			seen++
		}
	}
	if state := j.State(); state != JobRunning {
		t.Fatalf("job already %s after 3 records — stream did not follow a live job", state)
	}
	close(gate) // let the job finish; the stream must end with "end"
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("drain SSE: %v", err)
	}
	if !strings.Contains(string(rest), "event: end") {
		t.Fatalf("stream did not terminate with an end event:\n%s", rest)
	}
}
