// job.go is the job lifecycle: one submitted campaign (or shard of one)
// running through campaign.Run, its finished points buffered as JSONL lines
// for streaming, its progress tracked by an obs.CampaignProgress
// registered in the process-wide registry, and — when the manager has a
// checkpoint root — its completions journaled write-ahead so a daemon
// restart resumes it byte-identically.
package service

import (
	"errors"
	"sync"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// JobState is a job's lifecycle position. Jobs start running (submission
// is execution) and end in exactly one of done, failed, or cancelled.
type JobState string

// Job states.
const (
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s != JobRunning }

// Job is one submitted campaign run. All exported methods are safe for
// concurrent use.
type Job struct {
	id   string
	spec JobSpec
	raw  []byte // submitted spec document, verbatim (persisted in the manifest)
	camp *campaign.Campaign
	rng  campaign.PointRange

	dir    string // per-job checkpoint directory; "" = memory-only
	resume bool   // journal may hold completions from a previous process

	progress   *obs.CampaignProgress
	unregister func()

	cancel     chan struct{}
	cancelOnce sync.Once

	mu     sync.Mutex
	state  JobState
	errMsg string
	lines  [][]byte      // one JSONL record per finished point, index order
	wake   chan struct{} // closed and replaced on every append/state change
}

// newJob builds a registered, not-yet-started job.
func newJob(id string, js JobSpec, raw []byte, c *campaign.Campaign, rng campaign.PointRange) *Job {
	rawCopy := make([]byte, len(raw))
	copy(rawCopy, raw)
	j := &Job{
		id:       id,
		spec:     js,
		raw:      rawCopy,
		camp:     c,
		rng:      rng,
		progress: obs.NewCampaignProgress(c.Spec.Name, rng.Hi-rng.Lo),
		cancel:   make(chan struct{}),
		state:    JobRunning,
		wake:     make(chan struct{}),
	}
	j.unregister = obs.DefaultRegistry.Register(j.progress)
	return j
}

// ID returns the job id.
func (j *Job) ID() string { return j.id }

// Range returns the contiguous point-index range this job owns.
func (j *Job) Range() campaign.PointRange { return j.rng }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the failure message of a failed job, "" otherwise.
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// requestCancel closes the job's cancel channel (once): workers finish
// what is in flight, claim nothing new, and the job transitions to
// cancelled when the drain completes.
func (j *Job) requestCancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// appendLine buffers one finished point's JSONL record and wakes every
// streaming reader.
func (j *Job) appendLine(p []byte) {
	line := make([]byte, len(p))
	copy(line, p)
	j.mu.Lock()
	j.lines = append(j.lines, line)
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
}

// setState moves the job to a terminal state and wakes readers.
func (j *Job) setState(s JobState, errMsg string) {
	j.mu.Lock()
	j.state = s
	j.errMsg = errMsg
	close(j.wake)
	j.wake = make(chan struct{})
	j.mu.Unlock()
	j.unregister()
}

// next returns the buffered records from offset on (aliasing the
// internal buffer — records are append-only and never mutated), the
// job's state, and a channel closed at the next append or state change.
// A streaming reader loops: drain records, and when the state is
// terminal stop, else wait on the channel.
func (j *Job) next(offset int) (recs [][]byte, state JobState, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if offset < len(j.lines) {
		recs = j.lines[offset:]
	}
	return recs, j.state, j.wake
}

// lineWriter feeds a campaign.JSONLSink's output into the job's stream
// buffer; the sink writes exactly one full record per Write call.
type lineWriter struct{ j *Job }

func (w lineWriter) Write(p []byte) (int, error) {
	w.j.appendLine(p)
	return len(p), nil
}

// run executes the job to a terminal state. It is the goroutine body the
// manager starts; everything it does reuses the CLI path: the same
// campaign.Run, the same journal/cache/cancel wiring, the same JSONL
// serialization (so service streams are byte-identical to `campaign run`
// output for the same range).
func (j *Job) run(cfg Config) {
	sink := campaign.NewJSONLSink(lineWriter{j})
	_, err := j.camp.Run(campaign.RunOptions{
		Workers:    cfg.Workers,
		SimWorkers: cfg.SimWorkers,
		Sinks:      []campaign.Sink{sink},
		Progress:   j.progress,
		Retry:      cfg.Retry,
		Run:        cfg.Run,
		Checkpoint: j.dir,
		Resume:     j.resume,
		Cache:      cfg.Cache,
		Cancel:     j.cancel,
		Range:      &j.rng,
	})
	switch {
	case err == nil:
		j.setState(JobDone, "")
	case errors.Is(err, campaign.ErrCancelled):
		j.setState(JobCancelled, "")
	default:
		j.setState(JobFailed, err.Error())
	}
}

// JobStatus is the wire form of GET /v1/jobs/{id}: identity, lifecycle,
// shard geometry, and the live progress snapshot.
type JobStatus struct {
	ID       string   `json:"id"`
	Campaign string   `json:"campaign"`
	State    JobState `json:"state"`
	Error    string   `json:"error,omitempty"`
	// Shard is the submitted assignment, absent for whole-grid jobs.
	Shard *Shard `json:"shard,omitempty"`
	// Lo and Hi are the job's contiguous point-index range [Lo, Hi) in
	// the expanded grid; Points = Hi - Lo is what this job owns, Grid the
	// full campaign size.
	Lo     int `json:"lo"`
	Hi     int `json:"hi"`
	Points int `json:"points"`
	Grid   int `json:"grid"`
	// Streamed counts the result records buffered so far — the stream
	// offset a reconnecting client can resume from.
	Streamed int                  `json:"streamed"`
	Progress obs.ProgressSnapshot `json:"progress"`
}

// Status returns the job's current status snapshot.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	state, errMsg, streamed := j.state, j.errMsg, len(j.lines)
	j.mu.Unlock()
	return JobStatus{
		ID:       j.id,
		Campaign: j.camp.Spec.Name,
		State:    state,
		Error:    errMsg,
		Shard:    j.spec.Shard,
		Lo:       j.rng.Lo,
		Hi:       j.rng.Hi,
		Points:   j.rng.Hi - j.rng.Lo,
		Grid:     len(j.camp.Points),
		Streamed: streamed,
		Progress: j.progress.Snapshot(),
	}
}
