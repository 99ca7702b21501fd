// Command campaign runs declarative experiment campaigns: JSON specs that
// name a base scenario plus parameter axes (see internal/campaign and
// DESIGN.md §6). The grid expands deterministically, executes on the
// campaign trial pool, and streams every finished point — in point
// order, byte-identical at any pool size — to JSONL and/or CSV sinks.
//
// Usage:
//
//	campaign run <spec.json> [-parallel N] [-sim-workers N] [-jsonl PATH] [-csv PATH] [-replications N] [-per-replicate] [-progress] [-debug-addr ADDR] [-checkpoint DIR] [-resume] [-cache DIR] [-retries N] [-retry-backoff DUR]
//	campaign serve [-addr :8080] [-checkpoint DIR] [-cache DIR] [-parallel N] [-sim-workers N] [-retries N] [-retry-backoff DUR]
//	campaign expand <spec.json>
//	campaign validate <spec.json>
//
// `run` streams JSONL to stdout by default; -jsonl/-csv redirect to files
// ("-" means stdout, at most one sink may claim it). File outputs stream
// to <path>.partial and are renamed into place only when the run completes
// cleanly, so the existence of the final name certifies a full result set.
// `expand` prints the expanded grid without simulating; `validate` just
// checks the spec. -replications overrides the spec's replication count;
// above 1 the sinks emit aggregate records (mean/std/CI per metric across
// seed-derived trials), and -per-replicate additionally streams every
// trial's own JSONL record.
//
// Crash safety (internal/checkpoint, DESIGN.md §13): -checkpoint DIR
// journals every finished point (fsynced, write-ahead of the sinks) to
// DIR/journal.jsonl; after a crash or interrupt, the same invocation plus
// -resume replays the journaled prefix and executes only the missing
// points — output byte-identical to an uninterrupted run. -cache DIR
// shares finished points across campaigns by canonical scenario hash.
// -retries N re-executes failed trials (same seed — deterministic) with
// exponential backoff starting at -retry-backoff. SIGINT/SIGTERM drains
// the in-flight points, journals them, and prints the exact resume
// command; a second signal exits immediately.
//
// Live telemetry (internal/obs): -progress prints a heartbeat line to
// stderr every second (points done/total, completion rate, ETA, in-flight
// point indices), and -debug-addr starts an HTTP debug endpoint serving
// /debug/progress (a JSON array of snapshots), /debug/vars (expvar), and
// /debug/pprof. Neither affects the result stream: sink output stays
// byte-identical.
//
// Service mode (internal/service, DESIGN.md §14): `campaign serve` runs a
// long-lived HTTP daemon instead of a single campaign. POST a campaign
// spec to /v1/jobs (optionally with {"shard": {"index": i, "count": n}})
// to start a job; poll GET /v1/jobs/{id}, stream JSONL from
// /v1/jobs/{id}/results (SSE-framed under Accept: text/event-stream,
// resumable via Last-Event-ID), and DELETE to cancel with drain
// semantics. With -checkpoint DIR each job journals into its own
// subdirectory and the daemon resumes every unfinished job from its
// journal on restart; -cache DIR is shared across all jobs. SIGINT or
// SIGTERM drains every in-flight job before exit; a second signal exits
// immediately.
//
// Examples:
//
//	campaign run examples/campaigns/fig8.json -parallel 4
//	campaign run examples/campaigns/stress-1k.json -jsonl out.jsonl -csv out.csv
//	campaign run examples/campaigns/stress-1k.json -jsonl out.jsonl -checkpoint ckpt/
//	campaign run examples/campaigns/stress-1k.json -jsonl out.jsonl -checkpoint ckpt/ -resume
//	campaign expand examples/campaigns/fig8.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/checkpoint"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintf(os.Stderr, `usage:
  campaign run <spec.json> [-parallel N] [-sim-workers N] [-jsonl PATH] [-csv PATH] [-replications N] [-per-replicate] [-progress] [-debug-addr ADDR] [-checkpoint DIR] [-resume] [-cache DIR] [-retries N] [-retry-backoff DUR]
  campaign serve [-addr :8080] [-checkpoint DIR] [-cache DIR] [-parallel N] [-sim-workers N] [-retries N] [-retry-backoff DUR]
  campaign expand <spec.json>
  campaign validate <spec.json>
`)
	return 2
}

func run(args []string) int {
	if len(args) < 1 {
		return usage()
	}
	sub, rest := args[0], args[1:]
	if sub == "serve" {
		// serve takes no spec path — jobs arrive over HTTP.
		return serveCampaigns(rest)
	}
	if len(rest) < 1 || rest[0] == "" || rest[0][0] == '-' {
		return usage()
	}
	specPath, rest := rest[0], rest[1:]
	switch sub {
	case "run":
		return runCampaign(specPath, rest)
	case "expand":
		return expandCampaign(specPath, rest)
	case "validate":
		return validateCampaign(specPath, rest)
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n", sub)
		return usage()
	}
}

// load parses and expands a spec file. replications > 0 overrides the
// spec's own replication count before expansion.
func load(specPath string, replications int) (*campaign.Campaign, int) {
	spec, err := campaign.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // LoadSpec's errors carry the prefix
		return nil, 1
	}
	if replications > 0 {
		spec.Replications = replications
	}
	c, err := campaign.Expand(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // Expand's errors start with "campaign"
		return nil, 1
	}
	return c, 0
}

func runCampaign(specPath string, args []string) int {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	parallel := fs.Int("parallel", 0, "trial pool size: trials run at once (0 = all cores, 1 = serial)")
	jsonlPath := fs.String("jsonl", "-", `JSONL output: "-" for stdout, a path, or "" to disable`)
	csvPath := fs.String("csv", "", `CSV output: "-" for stdout, a path, or "" to disable`)
	replications := fs.Int("replications", 0, "override the spec's replication count (0 = use the spec's)")
	perReplicate := fs.Bool("per-replicate", false, "also emit each replicate's own JSONL record, not just the aggregate")
	simWorkers := fs.Int("sim-workers", 0, "goroutines for the data-parallel kernels inside each simulation (0/1 = serial; output is identical at any value)")
	progressFlag := fs.Bool("progress", false, "print a live heartbeat to stderr every second: points done/total, rate, ETA, in-flight points")
	debugAddr := fs.String("debug-addr", "", `serve a debug/ops HTTP endpoint on this address (e.g. ":6060"): /debug/progress, /debug/vars (expvar), /debug/pprof`)
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	checkpointDir := fs.String("checkpoint", "", "journal every finished point to DIR/journal.jsonl so an interrupted run can -resume")
	resume := fs.Bool("resume", false, "resume from the journal in -checkpoint: replay completed points, execute only the rest (output identical to an uninterrupted run)")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory: finished points are reused across campaigns by scenario hash")
	retries := fs.Int("retries", 0, "re-execute a failed trial up to N more times (same seed — deterministic)")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "wait before the first retry, doubling per attempt")
	fs.Parse(args)

	if *resume && *checkpointDir == "" {
		fmt.Fprintln(os.Stderr, "campaign: -resume requires -checkpoint DIR")
		return 2
	}

	stopProfiles, err := obs.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	defer stopProfiles()

	c, code := load(specPath, *replications)
	if code != 0 {
		return code
	}

	// Live telemetry: the tracker exists whenever either consumer (the
	// heartbeat or the debug endpoint) wants it; neither affects sink
	// output in any way.
	var progress *obs.CampaignProgress
	if *progressFlag || *debugAddr != "" {
		progress = obs.NewCampaignProgress(c.Spec.Name, len(c.Points))
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "campaign: debug endpoint on http://%s/debug/progress (also /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	stopHeartbeat := func() {}
	if *progressFlag {
		stopHeartbeat = progress.Heartbeat(os.Stderr, time.Second)
	}
	// Deferred so the heartbeat goroutine never outlives an early-exit
	// setup failure below; stop is idempotent, so the explicit call after
	// Run (which prints the final line before the summary) stays.
	defer stopHeartbeat()

	if *csvPath == "-" && *jsonlPath == "-" {
		// CSV claims stdout; an explicitly doubled "-" is an error.
		explicit := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "jsonl" {
				explicit = true
			}
		})
		if explicit {
			fmt.Fprintln(os.Stderr, "campaign: -jsonl and -csv cannot both write to stdout")
			return 2
		}
		*jsonlPath = ""
	}

	// File outputs stream through a FileSink (<path>.partial, renamed on
	// clean completion); stdout streams directly and needs no lifecycle.
	// Until the campaign takes ownership of the sinks, every early-exit
	// path below must abort them, or a setup failure after a FileSink was
	// created (bad -csv path, unreadable checkpoint, …) leaks its open
	// .partial file.
	var sinks []campaign.Sink
	sinksHandedOff := false
	defer func() {
		if sinksHandedOff {
			return
		}
		for _, s := range sinks {
			s.Abort()
		}
	}()
	addSink := func(path string, build func(io.Writer) campaign.Sink) error {
		if path == "-" {
			sinks = append(sinks, build(os.Stdout))
			return nil
		}
		s, err := campaign.NewFileSink(path, build)
		if err != nil {
			return err
		}
		sinks = append(sinks, s)
		return nil
	}
	if *jsonlPath != "" {
		err := addSink(*jsonlPath, func(w io.Writer) campaign.Sink {
			s := campaign.NewJSONLSink(w)
			s.PerReplicate = *perReplicate
			return s
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err) // NewFileSink's errors carry the prefix
			return 1
		}
	}
	if *csvPath != "" {
		if err := addSink(*csvPath, func(w io.Writer) campaign.Sink { return campaign.NewCSVSink(w) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	if *resume {
		fmt.Fprintf(os.Stderr, "campaign: resuming %q from %s\n", c.Spec.Name, checkpoint.JournalPath(*checkpointDir))
	}
	var cache *checkpoint.Cache
	if *cacheDir != "" {
		var err error
		cache, err = checkpoint.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			return 1
		}
	}

	// Graceful shutdown: the first SIGINT/SIGTERM closes Cancel — workers
	// drain (and journal) the in-flight points, sinks are aborted leaving
	// .partial files, and the exact resume command is printed. A second
	// signal exits immediately.
	cancel := make(chan struct{})
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "campaign: received %v; draining in-flight points (signal again to exit immediately)\n", s)
		close(cancel)
		<-sigc
		fmt.Fprintln(os.Stderr, "campaign: second signal; exiting without drain")
		os.Exit(130)
	}()

	start := time.Now()
	sinksHandedOff = true // Run owns the sink lifecycle (Close/Abort) from here
	_, err = c.Run(campaign.RunOptions{
		Workers:    *parallel,
		Sinks:      sinks,
		SimWorkers: *simWorkers,
		Progress:   progress,
		Retry:      campaign.RetryPolicy{Max: *retries, Backoff: *retryBackoff},
		Checkpoint: *checkpointDir,
		Resume:     *resume,
		Cache:      cache,
		Cancel:     cancel,
	})
	stopHeartbeat()
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // Run's errors start with the campaign's name
		// The hint helps only once the journal opened: a checkpoint that
		// could not be created, opened or replayed fails the resume too.
		var ckErr *campaign.CheckpointError
		if *checkpointDir != "" && !errors.As(err, &ckErr) {
			fmt.Fprintf(os.Stderr, "campaign: resume with:\n  %s\n", resumeCommand(specPath, args))
		}
		if errors.Is(err, campaign.ErrCancelled) {
			return 130
		}
		return 1
	}
	if reps := c.Replications(); reps > 1 {
		fmt.Fprintf(os.Stderr, "campaign %q: %d points × %d replications across %d axes in %v\n",
			c.Spec.Name, len(c.Points), reps, len(c.AxisNames), time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Fprintf(os.Stderr, "campaign %q: %d points across %d axes in %v\n",
			c.Spec.Name, len(c.Points), len(c.AxisNames), time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// serveCampaigns runs the campaign service daemon (internal/service): an
// HTTP API that accepts campaign specs as jobs, streams their results,
// and — with -checkpoint — resumes unfinished jobs from their journals on
// restart. The bound address is printed to stderr (useful with -addr :0).
// The first SIGINT/SIGTERM drains every in-flight job, then the server
// shuts down cleanly; a second signal exits immediately.
func serveCampaigns(args []string) int {
	fs := flag.NewFlagSet("campaign serve", flag.ExitOnError)
	addr := fs.String("addr", ":8080", `listen address (host:port; ":0" picks a free port, printed to stderr)`)
	checkpointRoot := fs.String("checkpoint", "", "checkpoint root: every job journals into its own subdirectory and unfinished jobs resume on daemon restart")
	cacheDir := fs.String("cache", "", "content-addressed result cache directory shared by every job (and by CLI runs pointed at it)")
	parallel := fs.Int("parallel", 0, "per-job trial pool size: trials each job runs at once (0 = all cores, 1 = serial)")
	simWorkers := fs.Int("sim-workers", 0, "goroutines for the data-parallel kernels inside each simulation (0/1 = serial)")
	retries := fs.Int("retries", 0, "re-execute a failed trial up to N more times (same seed — deterministic)")
	retryBackoff := fs.Duration("retry-backoff", 100*time.Millisecond, "wait before the first retry, doubling per attempt")
	fs.Parse(args)

	cfg := service.Config{
		CheckpointRoot: *checkpointRoot,
		Workers:        *parallel,
		SimWorkers:     *simWorkers,
		Retry:          campaign.RetryPolicy{Max: *retries, Backoff: *retryBackoff},
	}
	if *cacheDir != "" {
		cache, err := checkpoint.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
			return 1
		}
		cfg.Cache = cache
	}

	m := service.NewManager(cfg)
	recovered, err := m.Recover()
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	for _, j := range recovered {
		rng := j.Range()
		fmt.Fprintf(os.Stderr, "campaign: resuming job %s (points [%d,%d))\n", j.ID(), rng.Lo, rng.Hi)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: service.NewHandler(m)}
	fmt.Fprintf(os.Stderr, "campaign: serving on http://%s\n", ln.Addr())

	// Graceful shutdown: the first signal drains every job (in-flight
	// points finish and are journaled), then stops the HTTP server —
	// result streams of draining jobs end with their terminal state before
	// Shutdown returns. A second signal exits immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "campaign: received %v; draining jobs (signal again to exit immediately)\n", s)
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "campaign: second signal; exiting without drain")
			os.Exit(130)
		}()
		m.Drain()
		srv.Shutdown(context.Background())
	}()

	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "campaign: drained, shutting down")
	return 0
}

// resumeCommand reconstructs the invocation that continues an interrupted
// checkpointed run: the original arguments plus -resume (if not already
// present). Every token is shell-quoted, so the printed line can be pasted
// into a shell even when paths contain spaces or metacharacters, and only
// flag tokens (leading '-') count as a -resume occurrence — a flag *value*
// that happens to be "resume" (say, a checkpoint directory name) must not
// suppress the appended flag.
func resumeCommand(specPath string, args []string) string {
	cmd := append([]string{os.Args[0], "run", specPath}, args...)
	hasResume := false
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			continue
		}
		trimmed := strings.TrimLeft(a, "-")
		if trimmed == "resume" || strings.HasPrefix(trimmed, "resume=") {
			hasResume = true
			break
		}
	}
	if !hasResume {
		cmd = append(cmd, "-resume")
	}
	quoted := make([]string, len(cmd))
	for i, a := range cmd {
		quoted[i] = shellQuote(a)
	}
	return strings.Join(quoted, " ")
}

// shellQuote returns a token safe to paste into a POSIX shell: unchanged
// when it contains only safe characters, otherwise single-quoted, with
// each embedded single quote escaped.
func shellQuote(s string) string {
	if s == "" {
		return "''"
	}
	safe := true
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.', r == '/', r == '=', r == ':', r == ',', r == '+', r == '@', r == '%':
		default:
			safe = false
		}
		if !safe {
			break
		}
	}
	if safe {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

func expandCampaign(specPath string, args []string) int {
	fs := flag.NewFlagSet("campaign expand", flag.ExitOnError)
	fs.Parse(args)
	c, code := load(specPath, 0)
	if code != 0 {
		return code
	}
	for _, p := range c.Points {
		fmt.Printf("%d\t%s\n", p.Index, p.ParamsString())
	}
	fmt.Fprintf(os.Stderr, "campaign %q: %d points across %d axes\n", c.Spec.Name, len(c.Points), len(c.AxisNames))
	return 0
}

func validateCampaign(specPath string, args []string) int {
	fs := flag.NewFlagSet("campaign validate", flag.ExitOnError)
	fs.Parse(args)
	c, code := load(specPath, 0)
	if code != 0 {
		return code
	}
	fmt.Printf("ok: campaign %q expands to %d valid points\n", c.Spec.Name, len(c.Points))
	return 0
}
