// Command perfbench is the repository's benchmark. One run executes one
// workload in-process through the public Go API, checks its output, and
// prints its metrics by name with their units; the last line of standard
// output is the JSON result. The untraced run (-trace 0) prints the
// end-to-end metrics; the traced run (-trace 1) prints the per-layer
// metrics from spans recorded around the benchmark's own calls into each
// layer. README.md explains the workloads and the metrics.
//
// Build and run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload paper-169 --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
)

// defaultSeed is the seed the reference digests were recorded at.
const defaultSeed = 1

// minReps is the fewest repetitions a run makes, whatever its budget, so
// every reported time is a median.
const minReps = 3

// config is one run's settings.
type config struct {
	seed     int64
	seconds  float64
	workDir  string // scratch space inside the checkout
	spansDir string // where the traced run writes its spans
	// noPhaseClock runs the simulation trials without their
	// obs.RunObserver, for the traced run's phase-clock comparison.
	noPhaseClock bool
	refs         map[string]string // reference output digests at defaultSeed
	// clock samples the host's speed between units of work in the
	// untraced run; nil in the traced run.
	clock *hostClock
}

// digestOK reports whether an output digest passes: it must equal the
// reference when one was recorded for this workload at this seed.
func (c *config) digestOK(name, digest string) bool {
	ref, ok := c.refs[name]
	return c.seed != defaultSeed || !ok || ref == digest
}

// workload is one named benchmark input.
type workload interface {
	// rep runs one untraced repetition.
	rep(cfg *config) rep
	// kernel returns the calibration kernel whose speed follows the
	// workload's (calib.go).
	kernel() kernel
	// traced runs one traced repetition plus the layer probes and returns
	// the per-layer metrics.
	traced(cfg *config, tr *tracer) (rep, layers, error)
}

// workloads returns the benchmark's workloads at full size, or tiny
// variants of the same shape for the self-test.
func workloads(tiny bool) map[string]workload {
	paper := `{"name":"paper-169","base":{"workload":"all-to-all","nodes":169,"zoneRadius":20,"packetsPerNode":2,"drain":"2s","seed":%d},"axes":{"protocol":["spms","spin","flooding"],"failures":[false,true]}}`
	mobility := `{"name":"mobility-225","base":{"protocol":"spms","workload":"all-to-all","nodes":225,"zoneRadius":20,"packetsPerNode":1,"mobility":true,"mobilityPeriod":"100ms","mobilityFraction":0.05,"seed":%d}}`
	scale := `{"name":"scale-1e5","base":{"protocol":"spin","workload":"clustered","placement":"uniform","nodes":100000,"zoneRadius":20,"sources":200,"packetsPerNode":1,"drain":"2s","seed":%d}}`
	svc := serviceWorkload{name: "service-replay", clients: 2, seeds: 25, warmJobs: 100}
	if tiny {
		paper = strings.Replace(paper, `"nodes":169,`, `"nodes":25,`, 1)
		mobility = strings.Replace(mobility, `"nodes":225,`, `"nodes":36,`, 1)
		scale = strings.Replace(scale, `"nodes":100000,"zoneRadius":20,"sources":200,`, `"nodes":2000,"zoneRadius":20,"sources":20,`, 1)
		svc.seeds, svc.warmJobs = 2, 5
	}
	spec := func(format string) func(int64) string {
		return func(seed int64) string { return fmt.Sprintf(format, seed) }
	}
	return map[string]workload{
		"paper-169":      simWorkload{name: "paper-169", spec: spec(paper)},
		"mobility-225":   simWorkload{name: "mobility-225", spec: spec(mobility)},
		"scale-1e5":      simWorkload{name: "scale-1e5", spec: spec(scale), field: true},
		"service-replay": svc,
	}
}

func main() {
	name := flag.String("workload", "", "workload: paper-169, mobility-225, scale-1e5 or service-replay")
	seed := flag.Int64("seed", defaultSeed, "workload seed; every spec seed derives from it")
	seconds := flag.Float64("seconds", 25, "measured time of the run")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	w, ok := workloads(false)[*name]
	if !ok || flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := &config{seed: *seed, seconds: *seconds, refs: referenceDigests,
		workDir:  filepath.Join(".bench_build", "work", fmt.Sprint(os.Getpid())),
		spansDir: filepath.Join(".bench_build", "spans")}
	res, err := run(w, *name, cfg, *trace == 1, os.Stdout)
	if rmErr := os.RemoveAll(cfg.workDir); err == nil && rmErr != nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// rep is one repetition of a workload and what its checks found.
type rep struct {
	wall, setup time.Duration
	// ops are the service's per-op latencies, warm jobs, pooled over the
	// repetitions. perPoint marks a simulation, whose ops are its trials
	// instead: a trial's latency depends on its point, so across
	// repetitions each point's trials are reduced to their median before
	// taking percentiles over points.
	ops               []time.Duration
	perPoint          bool
	marks             [2]int // host clock marks at its start and end
	attempted, failed int
	digest            string   // hex SHA-256 of the checked output stream
	problems          []string // why ops failed

	// Traced-run detail.
	mem       memSnapshot // runtime counters over the measured section
	heapEnd   uint64      // live heap after a final GC
	trials    []trialRec
	sinkBytes int64
	points    []campaign.Point // the points whose records the probes replay
	results   [][]experiment.Result
}

func (r *rep) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"job_p50_s", "s"},
	{"job_p95_s", "s"},
}

// run measures one workload and prints its human-readable report to out.
func run(w workload, name string, cfg *config, traced bool, out io.Writer) (result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	noise := startNoise()
	var reps []rep
	var lay layers
	var repCPU, repSteal []float64
	if traced {
		// The untraced repetition is the base obs.overhead_s is taken
		// from. For the simulations, a repetition without the phase clock
		// shows what the end-to-end runs' only instrumentation costs; the
		// daemon attaches no observer, so service-replay has none to show.
		base := w.rep(cfg)
		runtime.GC()
		reps = []rep{base}
		var clock time.Duration
		if _, sim := w.(simWorkload); sim {
			unclocked := *cfg
			unclocked.noPhaseClock = true
			off := w.rep(&unclocked)
			runtime.GC()
			reps = append(reps, off)
			clock = base.wall - off.wall
		}
		tr := newTracer()
		r, l, err := w.traced(cfg, tr)
		if err != nil {
			return result{}, err
		}
		l.set("obs.overhead_s", (r.wall - base.wall).Seconds())
		l.set("obs.phase_clock_s", clock.Seconds())
		reps, lay = append(reps, r), l
		if err := writeSpans(cfg, name, tr); err != nil {
			return result{}, err
		}
	} else {
		cfg.clock = newHostClock(w.kernel())
		start := time.Now()
		for {
			cfg.clock.sample()
			cpu0, steal0 := cpuSeconds(), stealJiffies()
			a := cfg.clock.mark()
			r := w.rep(cfg)
			r.marks = [2]int{a, cfg.clock.mark()}
			repCPU = append(repCPU, cpuSeconds()-cpu0)
			repSteal = append(repSteal, stealJiffies()-steal0)
			reps = append(reps, r)
			elapsed := time.Since(start).Seconds()
			if len(reps) >= minReps && elapsed+elapsed/float64(len(reps)) > cfg.seconds {
				cfg.clock.sample() // the last repetition's sample after
				break
			}
			// Each repetition starts from a collected heap.
			runtime.GC()
		}
	}
	n := noise.stop()

	res := result{Metrics: make(map[string]metric)}
	// walls, setups and ops are in reference-host seconds; the raw ones
	// as measured, for the report.
	var walls, setups, ops, rawWalls, rawSetups, factors []float64
	var byPoint [][]float64
	digests := make(map[string]bool)
	for _, r := range reps {
		res.Attempted += r.attempted
		res.Failed += min(r.failed, r.attempted)
		f := cfg.clock.factor(r.marks)
		factors = append(factors, f)
		rawWalls = append(rawWalls, r.wall.Seconds())
		rawSetups = append(rawSetups, r.setup.Seconds())
		if !r.perPoint {
			walls = append(walls, r.wall.Seconds()*f)
			setups = append(setups, r.setup.Seconds()*f)
			for _, d := range r.ops {
				ops = append(ops, d.Seconds()*f)
			}
		} else {
			// Each trial by its own factor, the campaign's time outside
			// the trials by the repetition's.
			wall, setup, outside := 0.0, 0.0, r.wall
			for i, t := range r.trials {
				ft := cfg.clock.factor(t.marks)
				wall += t.wall.Seconds() * ft
				setup += (t.stats.Wall - t.stats.EventLoop).Seconds() * ft
				outside -= t.wall
				if i == len(byPoint) {
					byPoint = append(byPoint, nil)
				}
				byPoint[i] = append(byPoint[i], t.wall.Seconds()*ft)
			}
			walls = append(walls, wall+outside.Seconds()*f)
			setups = append(setups, setup)
		}
		digests[r.digest] = true
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", name, p)
		}
	}
	if len(digests) > 1 {
		// The same seed must give the same bytes in every repetition.
		fmt.Fprintf(os.Stderr, "perfbench: %s: output differs between repetitions\n", name)
		res.Failed = res.Attempted
	}
	for _, xs := range byPoint {
		ops = append(ops, median(xs))
	}
	res.Correct = res.Failed == 0 && len(ops) > 0
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{lay.values[m.name], m.unit}
		}
	} else {
		e2e := map[string]float64{
			"wall_s":      median(walls),
			"setup_s":     median(setups),
			"peak_rss_mb": n.peakRSSMB,
			"job_p50_s":   percentile(ops, 50),
			"job_p95_s":   percentile(ops, 95),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	}

	// The human-readable report: every metric by name with its unit, the
	// failure ratio, the output digest, and the noise diagnostics.
	fmt.Fprintf(out, "workload %s  seed %d  repetitions %d  ops %d  trace %v\n", name, cfg.seed, len(reps), res.Attempted, traced)
	fmt.Fprintf(out, "  %-28s %.6g (%d/%d)\n", "failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if cfg.clock != nil {
		fmt.Fprintf(out, "  host factor %.6g, median over repetitions (%d kernel slices, reference %v); as measured: wall %.6g s, setup %.6g s\n",
			median(factors), len(cfg.clock.slices), cfg.clock.k.ref(), median(rawWalls), median(rawSetups))
	}
	fmt.Fprintf(out, "  output digest %s\n", reps[0].digest)
	// A map of numbers, strings and float slices always marshals.
	diag, _ := json.Marshal(map[string]any{
		"workload": name, "seed": cfg.seed, "trace": traced, "walls_s": rawWalls, "setups_s": rawSetups, "factors": factors,
		"cpu_s": n.cpuS, "steal_jiffies": n.stealJiffies, "rep_cpu_s": repCPU, "rep_steal_jiffies": repSteal, "slices_s": sliceSeconds(cfg.clock), "elapsed_s": n.elapsedS, "digest": reps[0].digest,
	})
	fmt.Fprintf(out, "noise %s\n", diag)
	return res, nil
}

// writeSpans writes the traced run's spans, as JSONL, under the build
// directory, and checks that every trial's and job's spans partition it.
func writeSpans(cfg *config, name string, tr *tracer) error {
	for _, root := range []string{"experiment.trial", "service.job"} {
		if err := tr.checkPartition(root); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed)))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the percentile p of xs, interpolated linearly between the
// order statistics around rank p/100·(n−1); percentile(xs, 50) is the
// median.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(rank)
	if lo == len(s)-1 {
		return s[lo]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

// sliceSeconds lists a run's kernel slice times, for the noise record.
func sliceSeconds(h *hostClock) []float64 {
	if h == nil {
		return nil
	}
	xs := make([]float64, len(h.slices))
	for i, d := range h.slices {
		xs[i] = d.Seconds()
	}
	return xs
}
