package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

// --- Timeline ---

func sampleAt(tick int, interval time.Duration) TimelineSample {
	return TimelineSample{
		T:           time.Duration(tick) * interval,
		Sent:        uint64(tick * 10),
		Delivered:   uint64(tick * 3),
		TotalEnergy: float64(tick) * 1.5,
	}
}

func TestTimelineRejectsBadInterval(t *testing.T) {
	if _, err := NewTimeline(0, 8); err == nil {
		t.Fatal("NewTimeline(0, 8): want error, got nil")
	}
	if _, err := NewTimeline(-time.Second, 8); err == nil {
		t.Fatal("NewTimeline(-1s, 8): want error, got nil")
	}
}

func TestTimelineUnbounded(t *testing.T) {
	tl, err := NewTimeline(time.Millisecond, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		tl.Offer(sampleAt(i, time.Millisecond))
	}
	if got := len(tl.Samples()); got != 50 {
		t.Fatalf("samples under cap: got %d, want 50", got)
	}
	if tl.Stride() != 1 {
		t.Fatalf("stride before decimation: got %d, want 1", tl.Stride())
	}
}

// TestTimelineDecimation drives far past the cap and checks the three
// invariants: the bound holds, retained samples stay uniformly spaced at
// stride·interval, and they cover the whole run (first at stride, last at
// the final recorded tick) rather than a truncated prefix or tail.
func TestTimelineDecimation(t *testing.T) {
	const cap = 8
	interval := time.Millisecond
	tl, err := NewTimeline(interval, cap)
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 1000
	for i := 1; i <= ticks; i++ {
		tl.Offer(sampleAt(i, interval))
	}
	got := tl.Samples()
	if len(got) > cap {
		t.Fatalf("decimation bound: %d samples, cap %d", len(got), cap)
	}
	if len(got) < cap/2 {
		t.Fatalf("decimation too aggressive: %d samples, cap %d", len(got), cap)
	}
	stride := tl.Stride()
	step := time.Duration(stride) * interval
	// Decimation keeps even indices, so the first sample ever recorded
	// (tick 1) survives every fold: the series anchors at the run start.
	if got[0].T != interval {
		t.Fatalf("first retained sample at %v, want the first tick (%v)", got[0].T, interval)
	}
	for i := 1; i < len(got); i++ {
		if d := got[i].T - got[i-1].T; d != step {
			t.Fatalf("sample %d: spacing %v, want uniform %v (stride %d)", i, d, step, stride)
		}
	}
	// Coverage: the last retained sample must be within one stride of the
	// last tick ever recorded (which is itself within a stride of ticks).
	if last := got[len(got)-1].T; last < time.Duration(ticks-2*stride)*interval {
		t.Fatalf("last retained sample at %v does not cover the run end (~%v)", last, time.Duration(ticks)*interval)
	}
}

func TestTimelineOddCapRoundsUp(t *testing.T) {
	tl, err := NewTimeline(time.Millisecond, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 64; i++ {
		tl.Offer(sampleAt(i, time.Millisecond))
	}
	if got := len(tl.Samples()); got > 8 {
		t.Fatalf("odd cap 7 should round to 8: got %d samples", got)
	}
}

// TestTimelineJSONLMatchesEncodingJSON pins the hand-rolled encoder to the
// struct's JSON tags: every line must decode back into an identical sample.
func TestTimelineJSONLMatchesEncodingJSON(t *testing.T) {
	tl, err := NewTimeline(time.Millisecond, 16)
	if err != nil {
		t.Fatal(err)
	}
	tl.Offer(TimelineSample{T: time.Millisecond, Sent: 12, Delivered: 7, Drops: 1, Duplicates: 2, Timeouts: 3, TotalEnergy: 1234.5625, CtrlEnergy: 17.25})
	tl.Offer(TimelineSample{T: 2 * time.Millisecond, Sent: 120})
	var buf bytes.Buffer
	if err := tl.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	for i, line := range lines {
		var got TimelineSample
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v\n%s", i, err, line)
		}
		if got != tl.Samples()[i] {
			t.Fatalf("line %d round-trip:\n got %+v\nwant %+v", i, got, tl.Samples()[i])
		}
	}
	if !strings.HasPrefix(lines[0], `{"tNs":1000000,"sent":12,`) {
		t.Fatalf("field order changed: %s", lines[0])
	}
}

// --- TraceSink ---

func TestTraceSinkEmit(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	s.Emit(Event{
		T: 2690 * time.Microsecond, Kind: EventTx, Node: 3, PacketKind: packet.ADV,
		Meta: packet.DataID{Origin: 1, Seq: 0}, Src: 1, Dst: -1, Requester: -2, Provider: -2,
		Level: 5, Bytes: 2,
	})
	s.Emit(Event{
		T: 3 * time.Millisecond, Kind: EventDrop, Node: 9, PacketKind: packet.DATA,
		Meta: packet.DataID{Origin: 4, Seq: 2}, Src: 4, Dst: 9,
		Bytes: 500, Reason: `node "dead"`,
	})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.Events(); got != 2 {
		t.Fatalf("Events() = %d, want 2", got)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	want0 := `{"t":2690000,"kind":"tx","node":3,"pkt":"ADV","meta":"d1.0","src":1,"dst":-1,"req":-2,"prov":-2,"level":5,"bytes":2}`
	if lines[0] != want0 {
		t.Fatalf("line 0:\n got %s\nwant %s", lines[0], want0)
	}
	// Every line must be valid JSON, including the escaped drop reason.
	for i, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
	}
	var drop struct {
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &drop); err != nil {
		t.Fatal(err)
	}
	if drop.Reason != `node "dead"` {
		t.Fatalf("escaped reason round-trip: got %q", drop.Reason)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestTraceSinkStickyError(t *testing.T) {
	s := NewTraceSink(&errWriter{n: 10})
	big := Event{Kind: EventTx, Reason: ""}
	for i := 0; i < 5000; i++ {
		s.Emit(big) // eventually overflows the bufio buffer into the failing writer
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after writer failure: want error, got nil")
	}
	if s.Err() == nil {
		t.Fatal("Err after failure: want error, got nil")
	}
	n := s.Events()
	s.Emit(big)
	if s.Events() != n {
		t.Fatal("Emit after sticky error still counted an event")
	}
}

// --- RunObserver ---

// TestRunObserverPhasesAccumulate also pins where the nested phases
// land: a model span paused around a route span accumulates, and a
// mobility route span inside the event loop counts under both
// RouteCompute and MobilityRoutes.
func TestRunObserverPhasesAccumulate(t *testing.T) {
	o := &RunObserver{}
	o.BeginRun()
	for _, p := range []Phase{PhaseModel, PhaseRoutes, PhaseModel, PhaseRoutes} {
		sp := o.StartPhase(p)
		time.Sleep(time.Millisecond)
		sp.End()
	}
	sp := o.StartPhase(PhaseEvents)
	mob := o.StartPhase(PhaseMobilityRoutes)
	time.Sleep(time.Millisecond)
	mob.End()
	time.Sleep(time.Millisecond)
	sp.End()
	o.RecordKernel(1234, 56, 78)
	o.EndRun()

	st := o.Stats()
	if st.ModelBuild < 2*time.Millisecond {
		t.Fatalf("ModelBuild = %v, want >= 2ms (two accumulated spans)", st.ModelBuild)
	}
	if st.MobilityRoutes < time.Millisecond || st.RouteCompute < st.MobilityRoutes+2*time.Millisecond {
		t.Fatalf("RouteCompute = %v, MobilityRoutes = %v: want two initial spans plus the mobility one", st.RouteCompute, st.MobilityRoutes)
	}
	if st.EventLoop < st.MobilityRoutes+time.Millisecond {
		t.Fatalf("EventLoop = %v, want >= MobilityRoutes %v + 1ms", st.EventLoop, st.MobilityRoutes)
	}
	if sum := st.ModelBuild + st.RouteCompute - st.MobilityRoutes + st.EventLoop; st.Wall < sum {
		t.Fatalf("Wall %v < the phases' sum %v", st.Wall, sum)
	}
	if st.EventsDispatched != 1234 || st.PeakHeapDepth != 56 || st.ArenaHighWater != 78 {
		t.Fatalf("kernel stats not recorded: %+v", st)
	}
}

func TestRunObserverStatsFoldSinks(t *testing.T) {
	tl, err := NewTimeline(time.Millisecond, 16)
	if err != nil {
		t.Fatal(err)
	}
	tl.Offer(sampleAt(1, time.Millisecond))
	var buf bytes.Buffer
	tr := NewTraceSink(&buf)
	tr.Emit(Event{Kind: EventTx})
	o := &RunObserver{Timeline: tl, Trace: tr}
	st := o.Stats()
	if st.TimelineSamples != 1 || st.TraceEvents != 1 {
		t.Fatalf("Stats() did not fold sink counters: %+v", st)
	}
}

// --- Zero-value / nil contract ---

// TestZeroValueObservabilityAllocFree is the CI allocation guard for the
// disabled layer: every nil-receiver hook on the hot path must cost zero
// allocations, so instrumented call sites are free when observability is
// off.
func TestZeroValueObservabilityAllocFree(t *testing.T) {
	var o *RunObserver
	var tl *Timeline
	var tr *TraceSink
	var p *CampaignProgress
	ev := Event{Kind: EventTx, Reason: "x"}
	s := TimelineSample{T: time.Millisecond}

	allocs := testing.AllocsPerRun(1000, func() {
		o.BeginRun()
		sp := o.StartPhase(PhaseEvents)
		sp.End()
		o.RecordKernel(1, 2, 3)
		o.EndRun()
		_ = o.Stats()
		tl.Offer(s)
		_ = tl.Interval()
		tr.Emit(ev)
		_ = tr.Events()
		p.PointStarted(1)
		p.PointDone(1)
	})
	if allocs != 0 {
		t.Fatalf("nil observability hooks allocated %.1f times per run, want 0", allocs)
	}

	// A zero-value (non-nil, not constructed) Timeline is also disabled.
	disabled := &Timeline{}
	allocs = testing.AllocsPerRun(1000, func() { disabled.Offer(s) })
	if allocs != 0 {
		t.Fatalf("zero-value Timeline.Offer allocated %.1f times per run, want 0", allocs)
	}
}

func TestNilSafeEverything(t *testing.T) {
	var o *RunObserver
	if st := o.Stats(); st != (RunStats{}) {
		t.Fatalf("nil observer Stats: %+v", st)
	}
	var tl *Timeline
	if tl.Samples() != nil || tl.Stride() != 0 || tl.Interval() != 0 {
		t.Fatal("nil timeline accessors not inert")
	}
	if err := tl.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var tr *TraceSink
	if tr.Err() != nil || tr.Flush() != nil || tr.Events() != 0 {
		t.Fatal("nil trace sink not inert")
	}
	var p *CampaignProgress
	if s := p.Snapshot(); s.Total != 0 || s.Done != 0 || s.Running != nil {
		t.Fatalf("nil progress Snapshot: %+v", s)
	}
	stop := p.Heartbeat(&bytes.Buffer{}, time.Millisecond)
	stop()
}
