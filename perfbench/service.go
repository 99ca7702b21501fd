package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/service"
)

// serviceWorkload drives the campaign daemon (service.NewManager behind
// service.NewHandler on a loopback listener) with closed-loop clients,
// one connection each. Set-up boots the daemon and fills its result
// cache: every client submits its own campaign once, and every point of
// it simulates and is published to the cache. The measured section then
// resubmits those campaigns, so every point is a cache hit and nothing
// simulates.
//
// The daemon keeps its cache under the run's work directory, inside the
// checkout, and runs without a checkpoint root: a job journal fsyncs once
// per point, and on a disk-backed file system that wait varied more from
// run to run than the rest of a warm job took. The journal's cost is
// measured by the checkpoint probes instead.
type serviceWorkload struct {
	name     string
	clients  int
	seeds    int // seed-axis length of each client's campaign; points = 2·seeds
	warmJobs int // warm jobs per client per repetition
}

// spec is client c's campaign: {spms, spin} × seeds on a 16-node grid,
// with a seed range no other client's campaign shares.
func (w serviceWorkload) spec(seed int64, c int) string {
	return fmt.Sprintf(`{"name":"replay-c%d","base":{"workload":"all-to-all","nodes":16,"zoneRadius":20,"packetsPerNode":2,"drain":"2s","seed":%d},"axes":{"protocol":["spms","spin"],"seed":{"count":%d}}}`,
		c, seed*1000+int64(c)*100, w.seeds)
}

// job is one submitted job as its client saw it.
type job struct {
	id      string
	state   string // from the stream's end event
	records []byte // the streamed JSONL records, in order
	nrec    int
	bytes   int64 // SSE bytes read
	// Client-side timestamps: submit, submit answered, stream opened,
	// first record, end event.
	t0, t1, t2, t3, t4 time.Time
	err                error
}

// client is one closed-loop client with its own keep-alive connection.
type client struct {
	base string
	http *http.Client
}

// newClient's timeout turns a hung daemon into a failed job well inside
// the run's time limit.
func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

// run submits spec and streams the job's results as SSE until its end
// event.
func (c *client) run(spec string) job {
	var j job
	j.t0 = time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		j.err = err
		return j
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.t1 = time.Now()
	if err != nil || resp.StatusCode != http.StatusCreated {
		j.err = fmt.Errorf("submit: HTTP %d %s %v", resp.StatusCode, bytes.TrimSpace(body), err)
		return j
	}
	var st service.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return j
	}
	j.id = st.ID

	j.t2 = time.Now()
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/jobs/"+j.id+"/results", nil)
	if err != nil {
		j.err = err
		return j
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err = c.http.Do(req)
	if err != nil {
		j.err = err
		return j
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("stream: HTTP %d", resp.StatusCode)
		return j
	}
	j.err = j.readSSE(bufio.NewReader(resp.Body))
	// Drain to EOF so the connection is reused by the next job.
	n, _ := io.Copy(io.Discard, resp.Body)
	j.bytes += n
	return j
}

// readSSE collects the data lines of result events until the end event.
func (j *job) readSSE(br *bufio.Reader) error {
	event := ""
	for {
		line, err := br.ReadBytes('\n')
		j.bytes += int64(len(line))
		if err != nil {
			return fmt.Errorf("stream: ended before its end event: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		switch {
		case len(line) == 0:
			event = ""
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data := line[len("data: "):]
			if event == "end" {
				j.t4 = time.Now()
				j.state = string(data)
				return nil
			}
			if j.nrec == 0 {
				j.t3 = time.Now()
			}
			j.records = append(append(j.records, data...), '\n')
			j.nrec++
		}
	}
}

// status fetches a job's status.
func (c *client) status(id string) (service.JobStatus, error) {
	var st service.JobStatus
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status %s: HTTP %d", id, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// daemon is one booted service stack.
type daemon struct {
	mgr    *service.Manager
	srv    *http.Server
	served chan error
	base   string
}

func boot(dir string, run func(experiment.Scenario) (experiment.Result, error)) (*daemon, error) {
	cache, err := checkpoint.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return nil, err
	}
	mgr := service.NewManager(service.Config{Cache: cache, Workers: 1, SimWorkers: 1, Run: run})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{mgr: mgr, srv: &http.Server{Handler: service.NewHandler(mgr)}, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	go func() { d.served <- d.srv.Serve(ln) }()
	return d, nil
}

// stop shuts the server down, waits for it, and drains the manager.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.mgr.Drain()
	return err
}

// eachClient runs fn for every client concurrently and waits for all.
func eachClient(clients []*client, fn func(c int, cl *client)) {
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c, cl)
		}()
	}
	wg.Wait()
}

// serviceRep extends rep with what the service's traced run reports.
type serviceRep struct {
	rep
	httpErrors, records int
	streamBytes         int64
	cacheHits, misses   int
}

func (w serviceWorkload) run(cfg *config, tr *tracer) serviceRep {
	var r serviceRep
	dir := filepath.Join(cfg.workDir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		r.attempted = 1
		r.fail(1, "clear work dir: %v", err)
		return r
	}
	specs := make([]string, w.clients)
	for c := range specs {
		specs[c] = w.spec(cfg.seed, c)
	}
	points := 2 * w.seeds

	start := time.Now()
	bootSpan := tr.begin("service.boot", "daemon", -1)
	trials := &trialRunner{tr: tr, parent: -1}
	var run func(experiment.Scenario) (experiment.Result, error)
	if tr != nil {
		run = trials.run
	}
	d, err := boot(dir, run)
	tr.end(bootSpan)
	if err != nil {
		r.attempted = 1
		r.fail(1, "boot: %v", err)
		return r
	}
	clients := make([]*client, w.clients)
	for c := range clients {
		clients[c] = newClient(d.base)
	}

	cold := make([]job, w.clients)
	fill := tr.begin("service.fill", "daemon", -1)
	eachClient(clients, func(c int, cl *client) { cold[c] = cl.run(specs[c]) })
	tr.end(fill)
	r.setup = time.Since(start)

	warm := make([][]job, w.clients)
	var mem0 memSnapshot
	if tr != nil {
		mem0 = readMem()
	}
	warmStart := time.Now()
	warmSpan := tr.begin("service.warm", "daemon", -1)
	eachClient(clients, func(c int, cl *client) {
		for k := 0; k < w.warmJobs; k++ {
			warm[c] = append(warm[c], cl.run(specs[c]))
		}
	})
	tr.end(warmSpan)
	r.wall = time.Since(warmStart)
	if tr != nil {
		r.mem = readMem().sub(mem0)
		r.heapEnd = heapAfterGC() // the daemon still holds every job
	}

	// Checks, outside the timed window.
	digest := sha256.New()
	for c, j := range cold {
		r.attempted++
		digest.Write(j.records)
		r.checkJob(clients[c], j, points, nil, false)
	}
	r.digest = hex.EncodeToString(digest.Sum(nil))
	for c, jobs := range warm {
		for _, j := range jobs {
			r.attempted++
			if j.err == nil {
				r.ops = append(r.ops, j.t4.Sub(j.t0))
			}
			r.checkJob(clients[c], j, points, cold[c].records, true)
			r.records += j.nrec
			r.streamBytes += j.bytes
			if tr != nil && j.err == nil {
				addJobSpans(tr, j)
			}
		}
	}
	if tr != nil {
		r.trials = trials.records()
		if err := replayDirect(tr, dir, specs[0], &r); err != nil {
			r.fail(1, "direct replay: %v", err)
		}
	}
	if !cfg.digestOK(w.name, r.digest) {
		// Every warm job replays the cold output, so all of them are wrong.
		r.fail(r.attempted, "cold output digest %s, reference %s", r.digest, cfg.refs[w.name])
	}
	for _, cl := range clients {
		cl.http.CloseIdleConnections()
	}
	if err := d.stop(); err != nil {
		r.fail(1, "stop daemon: %v", err)
	}
	return r
}

// checkJob checks one job's outcome: no HTTP error, end state done, every
// point streamed, and for a warm job, records byte-identical to the cold
// job's and every point served from the cache.
func (r *serviceRep) checkJob(cl *client, j job, points int, coldRecords []byte, warm bool) {
	if j.err != nil {
		r.httpErrors++
		r.fail(1, "job %s: %v", j.id, j.err)
		return
	}
	if j.state != string(service.JobDone) || j.nrec != points {
		r.fail(1, "job %s: ended %q with %d of %d records", j.id, j.state, j.nrec, points)
		return
	}
	st, err := cl.status(j.id)
	if err != nil {
		r.httpErrors++
		r.fail(1, "job %s: %v", j.id, err)
		return
	}
	if st.State != service.JobDone {
		r.fail(1, "job %s: status %q", j.id, st.State)
		return
	}
	if !warm {
		// A cold job must simulate every point: a hit here would take its
		// trial out of setup_s.
		r.misses += points - st.Progress.CacheHits
		if st.Progress.CacheHits != 0 {
			r.fail(1, "job %s: %d of %d cold points were cache hits", j.id, st.Progress.CacheHits, points)
			return
		}
		if err := checkDeliveries(j.records); err != nil {
			r.fail(1, "job %s: %v", j.id, err)
		}
		return
	}
	r.cacheHits += st.Progress.CacheHits
	switch {
	case !bytes.Equal(j.records, coldRecords):
		r.fail(1, "job %s: warm records differ from the cold job's", j.id)
	case st.Progress.CacheHits != points:
		r.fail(1, "job %s: %d of %d points were cache hits", j.id, st.Progress.CacheHits, points)
	}
}

// checkDeliveries requires every streamed record's trial to have
// finished with deliveries ≤ expected.
func checkDeliveries(records []byte) error {
	dec := json.NewDecoder(bytes.NewReader(records))
	for dec.More() {
		var rec struct {
			Index  int `json:"index"`
			Result struct {
				Deliveries int `json:"deliveries"`
				Expected   int `json:"expected"`
			} `json:"result"`
		}
		if err := dec.Decode(&rec); err != nil {
			return fmt.Errorf("record: %w", err)
		}
		if rec.Result.Deliveries > rec.Result.Expected {
			return fmt.Errorf("point %d: %d deliveries, %d expected", rec.Index, rec.Result.Deliveries, rec.Result.Expected)
		}
	}
	return nil
}

// addJobSpans records a warm job's client-side spans: the job, its
// submit, and its stream with the wait for the first record inside it.
// Jobs are root spans: the two clients' jobs overlap in time.
func addJobSpans(tr *tracer, j job) {
	at := func(t time.Time) time.Duration { return t.Sub(tr.epoch) }
	id := tr.add("service.job", j.id, -1, at(j.t0), at(j.t4))
	tr.add("service.submit", j.id, id, at(j.t0), at(j.t1))
	stream := tr.add("service.stream", j.id, id, at(j.t2), at(j.t4))
	tr.add("service.first_record", j.id, stream, at(j.t2), at(j.t3))
}

// replayDirect runs one warm job's campaign straight through
// Campaign.Run with the daemon's cache, as the daemon's job runner does,
// so the campaign layer's own time shows in spans. Its points are all
// cache hits; the records it yields are the probes' input.
func replayDirect(tr *tracer, dir, spec string, r *serviceRep) error {
	expand := tr.begin("campaign.expand", "campaign", -1)
	c, err := expandSpec(spec)
	tr.end(expand)
	if err != nil {
		return err
	}
	cache, err := checkpoint.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return err
	}
	out := &countingWriter{w: io.Discard}
	runSpan := tr.begin("campaign.run", "campaign", -1)
	sink := &tracedSink{inner: campaign.NewJSONLSink(out), tr: tr, parent: runSpan}
	results, err := c.Run(campaign.RunOptions{Workers: 1, Sinks: []campaign.Sink{sink}, Cache: cache,
		Run: func(experiment.Scenario) (experiment.Result, error) {
			return experiment.Result{}, errors.New("cache miss in the replay")
		}})
	tr.end(runSpan)
	if err != nil {
		return err
	}
	r.sinkBytes = out.n
	r.points, r.results = c.Points, results
	return nil
}

func (w serviceWorkload) rep(cfg *config) rep { return w.run(cfg, nil).rep }

func (serviceWorkload) kernel() kernel { return newEventKernel() }

func (w serviceWorkload) traced(cfg *config, tr *tracer) (rep, layers, error) {
	var l layers
	c, err := expandSpec(w.spec(cfg.seed, 0))
	if err != nil {
		return rep{}, l, err
	}
	if _, err := l.probeAll(tr, c.Points); err != nil {
		return rep{}, l, err
	}
	runtime.GC()
	r := w.run(cfg, tr)
	if _, err := l.fromRep(tr, filepath.Join(cfg.workDir, w.name), r.rep); err != nil {
		return r.rep, l, err
	}
	// The measured section serves every point from the cache and
	// dispatches no events.
	l.fromRuntime(r.mem, r.heapEnd, 0)
	l.set("checkpoint.cache_hits", float64(r.cacheHits))
	l.set("checkpoint.cache_misses", float64(r.misses))
	// Computed, not counted: each miss (counted from the cold jobs'
	// status) publishes one cache entry through checkpoint.WriteFileAtomic,
	// one fsync; the daemon runs without a journal or job manifests, which
	// would add theirs.
	l.set("checkpoint.fsyncs", float64(r.misses))
	l.set("service.jobs", float64(len(r.ops)))
	l.set("service.records", float64(r.records))
	l.set("service.stream_bytes", float64(r.streamBytes))
	l.set("service.http_errors", float64(r.httpErrors))
	return r.rep, l, nil
}
