// progress.go is the live campaign telemetry: a concurrency-safe progress
// tracker fed by the campaign trial pool as it claims trials and finishes
// points, a stderr heartbeat for long-running campaigns, and a JSON
// snapshot the debug server serves.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// CampaignProgress tracks a campaign run's point-level progress. All
// methods are safe for concurrent use (pool workers report starts and
// completions from their own goroutines) and safe on a nil receiver, so
// the campaign runner wires the hooks unconditionally.
type CampaignProgress struct {
	name  string
	total int

	mu        sync.Mutex
	started   time.Time
	done      int
	trials    int // finished trials (replicates), for replicated campaigns
	resumed   int // points replayed from a checkpoint journal, not executed
	cacheHits int // points satisfied from the result cache, not executed
	retries   int // trial re-executions under the retry policy
	inFlight  map[int]struct{}
}

// NewCampaignProgress returns a tracker for a campaign of total points.
// The wall clock starts immediately.
func NewCampaignProgress(name string, total int) *CampaignProgress {
	return &CampaignProgress{
		name:     name,
		total:    total,
		started:  time.Now(),
		inFlight: make(map[int]struct{}),
	}
}

// PointStarted records that some trial of point i was claimed by a
// worker. Idempotent: replicated campaigns report one start per trial.
func (p *CampaignProgress) PointStarted(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.trials++
	p.inFlight[i] = struct{}{}
	p.mu.Unlock()
}

// PointDone records that point i (all of its trials) completed.
func (p *CampaignProgress) PointDone(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	delete(p.inFlight, i)
	p.mu.Unlock()
}

// PointResumed records that point i was replayed from a checkpoint journal
// rather than executed. Resumed points count as done but are excluded from
// the throughput estimate — they complete instantly.
func (p *CampaignProgress) PointResumed(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.resumed++
	p.mu.Unlock()
}

// PointCached records that point i was satisfied from the result cache
// rather than executed. Like resumed points, cached points count as done
// but not toward throughput.
func (p *CampaignProgress) PointCached(i int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.done++
	p.cacheHits++
	p.mu.Unlock()
}

// TrialRetried records one trial re-execution under the retry policy.
func (p *CampaignProgress) TrialRetried() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.retries++
	p.mu.Unlock()
}

// ProgressSnapshot is one self-contained view of a campaign's progress,
// JSON-ready for the debug endpoint and expvar.
type ProgressSnapshot struct {
	Name    string  `json:"name"`
	Done    int     `json:"done"`
	Total   int     `json:"total"`
	Percent float64 `json:"percent"`
	// Running lists the point indices currently claimed by workers, in
	// ascending order — the live "shard" of the grid being computed.
	Running []int `json:"running,omitempty"`
	// TrialsStarted counts claimed work units; for replicated campaigns it
	// exceeds Done·replications while trials are in flight.
	TrialsStarted int `json:"trialsStarted"`
	// Resumed counts points replayed from a checkpoint journal; CacheHits
	// counts points served by the result cache. Both are included in Done
	// but excluded from the throughput estimate.
	Resumed   int `json:"resumed,omitempty"`
	CacheHits int `json:"cacheHits,omitempty"`
	// Retries counts trial re-executions under the retry policy.
	Retries      int     `json:"retries,omitempty"`
	ElapsedSec   float64 `json:"elapsedSec"`
	PointsPerSec float64 `json:"pointsPerSec,omitempty"`
	// ETASec extrapolates from the mean wall clock of completed points;
	// absent until the first point completes.
	ETASec float64 `json:"etaSec,omitempty"`
}

// Snapshot returns the current progress view.
func (p *CampaignProgress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := ProgressSnapshot{
		Name:          p.name,
		Done:          p.done,
		Total:         p.total,
		TrialsStarted: p.trials,
		Resumed:       p.resumed,
		CacheHits:     p.cacheHits,
		Retries:       p.retries,
		ElapsedSec:    time.Since(p.started).Seconds(),
	}
	if p.total > 0 {
		s.Percent = 100 * float64(p.done) / float64(p.total)
	}
	if len(p.inFlight) > 0 {
		s.Running = make([]int, 0, len(p.inFlight))
		for i := range p.inFlight {
			s.Running = append(s.Running, i)
		}
		sort.Ints(s.Running)
	}
	// Points replayed from a journal or cache complete instantly; counting
	// them would inflate the rate and collapse the ETA, so the estimate
	// covers executed points only.
	executed := p.done - p.resumed - p.cacheHits
	if executed > 0 && s.ElapsedSec > 0 {
		s.PointsPerSec = float64(executed) / s.ElapsedSec
		s.ETASec = float64(p.total-p.done) / s.PointsPerSec
	}
	return s
}

// String renders the snapshot as one heartbeat line:
//
//	progress: stress-quick 12/16 points (75.0%) 1.79 pt/s elapsed 6.7s eta 2.2s running [12 13]
func (s ProgressSnapshot) String() string {
	line := fmt.Sprintf("progress: %s %d/%d points (%.1f%%)", s.Name, s.Done, s.Total, s.Percent)
	if s.Resumed > 0 {
		line += fmt.Sprintf(" resumed %d", s.Resumed)
	}
	if s.CacheHits > 0 {
		line += fmt.Sprintf(" cached %d", s.CacheHits)
	}
	if s.Retries > 0 {
		line += fmt.Sprintf(" retries %d", s.Retries)
	}
	if s.PointsPerSec > 0 {
		line += fmt.Sprintf(" %.2f pt/s", s.PointsPerSec)
	}
	line += fmt.Sprintf(" elapsed %s", time.Duration(s.ElapsedSec*float64(time.Second)).Round(100*time.Millisecond))
	if s.ETASec > 0 {
		line += fmt.Sprintf(" eta %s", time.Duration(s.ETASec*float64(time.Second)).Round(100*time.Millisecond))
	}
	if len(s.Running) > 0 {
		line += fmt.Sprintf(" running %v", s.Running)
	}
	return line
}

// MarshalJSON serializes the live snapshot, so a *CampaignProgress can be
// published directly as an expvar.
//
//repolint:allow hooknil encoding/json renders a nil *CampaignProgress as null without ever calling MarshalJSON
func (p *CampaignProgress) MarshalJSON() ([]byte, error) {
	return json.Marshal(p.Snapshot())
}

// Heartbeat starts a goroutine printing one snapshot line to w every
// interval until the returned stop function is called. Stop prints a
// final line (so short campaigns still report once) and waits for the
// goroutine to exit.
func (p *CampaignProgress) Heartbeat(w io.Writer, every time.Duration) (stop func()) {
	if p == nil {
		return func() {}
	}
	if every <= 0 {
		every = time.Second
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fmt.Fprintln(w, p.Snapshot().String())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(quit)
			<-done
			fmt.Fprintln(w, p.Snapshot().String())
		})
	}
}
