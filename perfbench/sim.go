package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

// simWorkload runs one serial campaign per repetition: campaign.Expand,
// then Campaign.Run with one worker and a JSONL sink whose stream is
// hashed and checked.
type simWorkload struct {
	name string
	// spec returns the campaign spec document for a workload seed.
	spec func(seed int64) string
	// field calibrates with the neighbour-list kernel instead of the
	// event-loop one (calib.go).
	field bool
}

func (w simWorkload) run(cfg *config, tr *tracer, initialRoute time.Duration) rep {
	var r rep
	start := time.Now()
	expand := tr.begin("campaign.expand", "campaign", -1)
	c, err := expandSpec(w.spec(cfg.seed))
	tr.end(expand)
	if err != nil {
		r.attempted = 1
		r.fail(1, "%v", err)
		return r
	}

	digest := sha256.New()
	out := &countingWriter{w: digest}
	runSpan := tr.begin("campaign.run", "campaign", -1)
	var sink campaign.Sink = campaign.NewJSONLSink(out)
	if tr != nil {
		sink = &tracedSink{inner: sink, tr: tr, parent: runSpan}
	}
	trials := &trialRunner{tr: tr, parent: runSpan, initialRoute: initialRoute, noClock: cfg.noPhaseClock, clock: cfg.clock}
	results, err := c.Run(campaign.RunOptions{Workers: 1, Sinks: []campaign.Sink{sink}, Run: trials.run})
	tr.end(runSpan)
	r.wall = time.Since(start) - trials.calib

	r.trials = trials.records()
	r.setup = setupTime(r.trials)
	r.sinkBytes = out.n
	r.points, r.results = c.Points, results
	r.attempted = len(c.Points)
	r.digest = hex.EncodeToString(digest.Sum(nil))
	r.perPoint = true
	switch {
	case err != nil:
		r.fail(r.attempted, "campaign run: %v", err)
	case !cfg.digestOK(w.name, r.digest):
		r.fail(r.attempted, "output digest %s, reference %s", r.digest, cfg.refs[w.name])
	default:
		for i, rs := range results {
			if res := rs[0]; res.Deliveries > res.Expected {
				r.fail(1, "point %d: %d deliveries, %d expected", i, res.Deliveries, res.Expected)
			}
		}
	}
	return r
}

// expandSpec parses a campaign spec document with the CLI's strict
// decoder and expands its grid.
func expandSpec(doc string) (*campaign.Campaign, error) {
	spec, err := campaign.ParseSpec(strings.NewReader(doc))
	if err != nil {
		return nil, err
	}
	return campaign.Expand(spec)
}

// pointTrace is the trace id of point i's spans.
func pointTrace(i int) string { return "p" + strconv.Itoa(i) }

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedSink records a span around every call into the sink it wraps.
type tracedSink struct {
	inner  campaign.Sink
	tr     *tracer
	parent int
}

func (s *tracedSink) timed(trace string, call func() error) error {
	id := s.tr.begin("campaign.sink", trace, s.parent)
	err := call()
	s.tr.end(id)
	return err
}

func (s *tracedSink) Begin(c *campaign.Campaign) error {
	return s.timed("campaign", func() error { return s.inner.Begin(c) })
}

func (s *tracedSink) Point(p campaign.Point, res experiment.Result) error {
	return s.timed(pointTrace(p.Index), func() error { return s.inner.Point(p, res) })
}

func (s *tracedSink) Aggregate(p campaign.Point, agg campaign.Aggregate) error {
	return s.timed(pointTrace(p.Index), func() error { return s.inner.Aggregate(p, agg) })
}

func (s *tracedSink) Close() error { return s.timed("campaign", s.inner.Close) }
func (s *tracedSink) Abort() error { return s.timed("campaign", s.inner.Abort) }

func (w simWorkload) rep(cfg *config) rep { return w.run(cfg, nil, 0) }

func (w simWorkload) kernel() kernel {
	if w.field {
		return newFieldKernel()
	}
	return newEventKernel()
}

func (w simWorkload) traced(cfg *config, tr *tracer) (rep, layers, error) {
	var l layers
	c, err := expandSpec(w.spec(cfg.seed))
	if err != nil {
		return rep{}, l, err
	}
	initialRoute, err := l.probeAll(tr, c.Points)
	if err != nil {
		return rep{}, l, err
	}
	runtime.GC()
	mem0 := readMem()
	r := w.run(cfg, tr, initialRoute)
	r.mem = readMem().sub(mem0)
	r.heapEnd = heapAfterGC()
	events, err := l.fromRep(tr, filepath.Join(cfg.workDir, w.name), r)
	l.fromRuntime(r.mem, r.heapEnd, events)
	return r, l, err
}
