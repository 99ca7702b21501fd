// Package service is the campaign service shell (DESIGN.md §14): the
// long-running daemon behind `campaign serve`. It accepts campaign specs
// over HTTP (POST /v1/jobs → job id), runs them through campaign.Run, and
// streams finished points back as JSONL — plain or SSE-framed — while
// every durability property of the CLI path carries over unchanged:
// per-job write-ahead journals make jobs resumable across daemon
// restarts, the content-addressed result cache is shared across jobs and
// campaigns, and a drain (DELETE, or process shutdown) finishes in-flight
// points instead of dropping them.
//
// Sharding rides the determinism contract: a job spec may carry
// {"shard": {"index": i, "count": n}}, which maps to the balanced
// contiguous point-index range campaign.ShardRange(points, i, n). Because
// grid expansion is deterministic and sinks observe points in index
// order, n daemon processes each running one shard of the same spec
// produce — concatenated in shard order — byte-identical JSONL to a
// single process running the whole grid.
//
// The package contains no wall-clock, environment, or random inputs of
// its own (it sits in the repolint deterministic set): all timing lives
// in the obs progress trackers and the http server owned by cmd/campaign,
// and all durability barriers live in internal/checkpoint.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
)

// Config configures a Manager. The zero value is a memory-only manager:
// no durability, default pool sizes.
type Config struct {
	// CheckpointRoot, when non-empty, gives every job its own directory
	// under it — a job manifest (job.json, the submitted spec verbatim)
	// plus the write-ahead journal — making every job resumable across
	// daemon restarts via Recover. Empty means jobs live only in memory.
	CheckpointRoot string
	// Cache, when non-nil, is the content-addressed result cache shared
	// by every job (and by any CLI run pointed at the same directory).
	Cache *checkpoint.Cache
	// Workers bounds each job's trial pool; zero means one per core.
	// Concurrent jobs each get their own pool.
	Workers int
	// SimWorkers bounds the data-parallel kernels inside each simulation.
	SimWorkers int
	// Retry re-executes failed trials, as in campaign.RunOptions.
	Retry campaign.RetryPolicy
	// Run overrides the per-trial executor (tests); nil means the real
	// simulation (experiment.RunWith with SimWorkers).
	Run func(experiment.Scenario) (experiment.Result, error)
}

// Manager owns the daemon's jobs: submission, lookup, cancellation,
// recovery, and drain. All methods are safe for concurrent use.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order
	seq      int      // next job sequence number
	draining bool
	wg       sync.WaitGroup
}

// NewManager returns a manager over cfg. Call Recover next if
// cfg.CheckpointRoot may hold jobs from a previous process.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg, jobs: make(map[string]*Job)}
}

// jobFile is the persisted job manifest: the id plus the submitted job
// spec verbatim, so recovery re-parses exactly what the client sent.
type jobFile struct {
	ID   string `json:"id"`
	Spec string `json:"spec"`
}

// manifestName is the job manifest file inside a job's checkpoint dir.
const manifestName = "job.json"

// Submit parses raw (a campaign spec, optionally carrying a shard
// assignment), registers it as a new job, and starts it. The returned
// job is already running; poll it via Status or stream its results.
func (m *Manager) Submit(raw []byte) (*Job, error) {
	js, err := ParseJobSpec(raw)
	if err != nil {
		return nil, err
	}
	c, err := campaign.Expand(js.Spec)
	if err != nil {
		return nil, err
	}
	rng := js.Shard.pointRange(len(c.Points))

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.seq++
	id := jobID(m.seq, js)
	j := newJob(id, js, raw, c, rng)
	if m.cfg.CheckpointRoot != "" {
		j.dir = filepath.Join(m.cfg.CheckpointRoot, id)
		if err := persistManifest(j); err != nil {
			m.seq--
			m.mu.Unlock()
			return nil, err
		}
	}
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.start(j)
	m.mu.Unlock()
	return j, nil
}

// ErrDraining rejects submissions to a manager that is shutting down.
var ErrDraining = errors.New("service: draining, not accepting new jobs")

// jobID mints a stable, path-safe job id: a sequence number, the campaign
// name, and the shard assignment if any (e.g. "j0003-stress-quick-s0of2").
func jobID(seq int, js JobSpec) string {
	id := fmt.Sprintf("j%04d-%s", seq, sanitize(js.Spec.Name))
	if js.Shard != nil {
		id += fmt.Sprintf("-s%dof%d", js.Shard.Index, js.Shard.Count)
	}
	return id
}

// sanitize maps a campaign name onto the path-safe alphabet used in job
// ids and checkpoint directory names.
func sanitize(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "campaign"
	}
	return b.String()
}

// persistManifest writes the job manifest into its (created) checkpoint
// directory, atomically, so a recovery scan never sees a torn manifest.
func persistManifest(j *Job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("service: create job dir: %w", err)
	}
	data, err := json.MarshalIndent(jobFile{ID: j.id, Spec: string(j.raw)}, "", "  ")
	if err != nil {
		return fmt.Errorf("service: encode manifest %s: %w", j.id, err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(j.dir, manifestName), data); err != nil {
		return fmt.Errorf("service: persist manifest %s: %w", j.id, err)
	}
	return nil
}

// start launches the job's runner goroutine. Caller holds m.mu.
func (m *Manager) start(j *Job) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		j.run(m.cfg)
	}()
}

// Recover scans CheckpointRoot for jobs persisted by a previous daemon
// process and restarts each one from its journal: fully-journaled jobs
// replay straight to done (their result stream becomes servable again),
// partial jobs execute only their missing points — the same byte-identical
// resume contract as `campaign run -resume` (DESIGN.md §13). It returns
// the recovered jobs in directory order. Call once, before serving.
func (m *Manager) Recover() ([]*Job, error) {
	if m.cfg.CheckpointRoot == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(m.cfg.CheckpointRoot)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("service: scan checkpoint root: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)

	var recovered []*Job
	for _, name := range names {
		dir := filepath.Join(m.cfg.CheckpointRoot, name)
		data, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err != nil {
			if os.IsNotExist(err) {
				continue // not a job dir
			}
			return recovered, fmt.Errorf("service: read manifest in %s: %w", dir, err)
		}
		var mf jobFile
		if err := json.Unmarshal(data, &mf); err != nil {
			return recovered, fmt.Errorf("service: manifest in %s corrupt: %w", dir, err)
		}
		raw := []byte(mf.Spec)
		js, err := ParseJobSpec(raw)
		if err != nil {
			return recovered, fmt.Errorf("service: job %s spec: %w", mf.ID, err)
		}
		c, err := campaign.Expand(js.Spec)
		if err != nil {
			return recovered, fmt.Errorf("service: job %s: %w", mf.ID, err)
		}
		rng := js.Shard.pointRange(len(c.Points))

		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return recovered, ErrDraining
		}
		if _, exists := m.jobs[mf.ID]; exists {
			m.mu.Unlock()
			return recovered, fmt.Errorf("service: duplicate job id %s in checkpoint root", mf.ID)
		}
		j := newJob(mf.ID, js, raw, c, rng)
		j.dir = dir
		j.resume = true
		if seq := seqOf(mf.ID); seq > m.seq {
			m.seq = seq
		}
		m.jobs[mf.ID] = j
		m.order = append(m.order, mf.ID)
		m.start(j)
		m.mu.Unlock()
		recovered = append(recovered, j)
	}
	return recovered, nil
}

// seqOf extracts the sequence number from a job id ("j0042-…" → 42), so
// recovered ids and fresh submissions never collide. Unparseable ids
// contribute 0.
func seqOf(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n := 0
	for i := 1; i < len(id); i++ {
		ch := id[i]
		if ch == '-' {
			return n
		}
		if ch < '0' || ch > '9' {
			return 0
		}
		n = n*10 + int(ch-'0')
	}
	return n
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order (recovered jobs first, in
// directory order).
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, len(m.order))
	for i, id := range m.order {
		out[i] = m.jobs[id]
	}
	return out
}

// Cancel requests a graceful stop of the job: its workers finish (and
// journal) the points already in flight, then the job transitions to
// cancelled. Idempotent; cancelling a finished job is a no-op. The
// returned job lets the caller observe the drain.
func (m *Manager) Cancel(id string) (*Job, error) {
	j, ok := m.Get(id)
	if !ok {
		return nil, fmt.Errorf("service: no job %s", id)
	}
	j.requestCancel()
	return j, nil
}

// Drain gracefully stops every job — in-flight points finish and are
// journaled, nothing new is claimed — rejects further submissions, and
// waits for all job runners to exit. Safe to call more than once.
func (m *Manager) Drain() {
	m.mu.Lock()
	m.draining = true
	for _, id := range m.order {
		m.jobs[id].requestCancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
}
