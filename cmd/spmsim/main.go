// Command spmsim runs a single SPMS/SPIN/flooding simulation scenario and
// prints its metrics. It is the exploratory companion to cmd/figures:
// every knob of the experiment harness is exposed as a flag, and a full
// scenario — including the nested SPMS-timer and failure-model configs —
// can be loaded from a JSON spec with -scenario (the same wire format
// campaign files use; see internal/campaign). When -scenario is given,
// explicitly set flags override the file's fields.
//
// Examples:
//
//	spmsim -protocol spms -nodes 169 -radius 20
//	spmsim -protocol spin -nodes 100 -radius 15 -failures
//	spmsim -protocol spms -workload cluster -radius 25 -cluster-interest 0.1
//	spmsim -mobility -mobility-period 50ms -mobility-fraction 0.1 -radius 20
//	spmsim -placement clustered -placement-clusters 5 -nodes 100 -radius 20
//	spmsim -mobility -mobility-model waypoint -waypoint-speed-max 10 -radius 20
//	spmsim -failures -failure-model burst -burst-radius 25 -radius 20
//	spmsim -scenario scenario.json -seed 7
//	spmsim -protocol spms -nodes 100 -radius 20 -replications 10
//
// -replications N (N > 1) runs N independent trials whose seeds derive
// deterministically from -seed as a one-point campaign (internal/campaign,
// so -parallel bounds its trial pool), and prints mean / std / 95% CI /
// min / max per metric instead of the single-run report.
//
// Single runs can additionally stream observability artifacts
// (internal/obs, DESIGN.md §11) without perturbing the metrics: -trace
// writes one JSONL line per packet event (byte-identical at every
// -sim-workers value), -timeline samples the live counters every
// -timeline-interval of simulated time into a bounded JSONL series, and
// -run-stats reports phase timings plus event-kernel statistics as JSON
// ("-" writes to stderr). These flags apply to exactly one run and are
// rejected when -replications > 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/obs"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		scenarioPath = flag.String("scenario", "", "JSON scenario file to run (explicit flags override its fields)")
		protoName    = flag.String("protocol", "spms", "protocol: spms | spin | flood")
		wlName       = flag.String("workload", "all-to-all", "workload: all-to-all | cluster")
		nodes        = flag.Int("nodes", 169, "number of sensor nodes")
		radius       = flag.Float64("radius", 20, "maximum transmission radius in meters (zone radius)")
		spacing      = flag.Float64("spacing", 5, "grid spacing in meters")
		placement    = flag.String("placement", "grid", "node placement model: grid | uniform | chain | clustered")
		placeK       = flag.Int("placement-clusters", 0, "clustered placement: number of Gaussian blobs (0 = default 4)")
		placeSpread  = flag.Float64("placement-spread", 0, "clustered placement: per-axis blob deviation in meters (0 = 2×spacing)")
		packets      = flag.Int("packets", 10, "data items generated per node")
		sources      = flag.Int("sources", 0, "nodes that originate data: the first N ids (0 = every node)")
		clusterProb  = flag.Float64("cluster-interest", 0.05, "clustered workload: bystander interest probability in [0,1]")
		failures     = flag.Bool("failures", false, "inject node failures (see -failure-model; Table 1 timing by default)")
		failureModel = flag.String("failure-model", "transient", "failure model: transient | crash | burst")
		burstRadius  = flag.Float64("burst-radius", 0, "burst failures: epicenter radius in meters (0 = zone radius)")
		mobility     = flag.Bool("mobility", false, "move nodes periodically (see -mobility-model, -mobility-period, -mobility-fraction)")
		mobModel     = flag.String("mobility-model", "relocate", "mobility model: relocate | waypoint")
		mobPeriod    = flag.Duration("mobility-period", 100*time.Millisecond, "interval between mobility events")
		mobFraction  = flag.Float64("mobility-fraction", 0.05, "fraction of nodes moving, in [0,1]")
		wpSpeedMin   = flag.Float64("waypoint-speed-min", 0, "waypoint mobility: minimum leg speed in m/s (0 = default 5)")
		wpSpeedMax   = flag.Float64("waypoint-speed-max", 0, "waypoint mobility: maximum leg speed in m/s (0 = default 15)")
		wpPauseMin   = flag.Duration("waypoint-pause-min", 0, "waypoint mobility: minimum arrival pause")
		wpPauseMax   = flag.Duration("waypoint-pause-max", 0, "waypoint mobility: maximum arrival pause (0 = default 100ms)")
		carrier      = flag.Bool("carrier-sense", false, "serialize transmissions on a shared channel (MAC ablation)")
		chargeDBF    = flag.Bool("charge-initial-dbf", false, "charge the initial DBF convergence energy, not just mobility re-runs")
		seed         = flag.Int64("seed", 1, "simulation seed")
		drain        = flag.Duration("drain", 3*time.Second, "extra simulated time after the last origination")
		altRoutes    = flag.Int("routes", 2, "SPMS routing entries per destination")
		replications = flag.Int("replications", 1, "independent seed-derived trials; above 1 prints mean ± 95% CI per metric")
		parallel     = flag.Int("parallel", 0, "replicate worker pool size (0 = all cores, 1 = serial)")
		simWorkers   = flag.Int("sim-workers", 0, "goroutines for the data-parallel kernels inside one simulation (0/1 = serial; output is identical at any value)")
		tracePath    = flag.String("trace", "", "write a structured packet-event trace (JSONL, one line per tx/deliver/drop) to this file")
		timelinePath = flag.String("timeline", "", "write a sim-time metrics timeline (JSONL, one sample per interval) to this file")
		timelineIntv = flag.Duration("timeline-interval", 50*time.Millisecond, "simulated time between -timeline samples")
		runStatsPath = flag.String("run-stats", "", `write phase timings and event-kernel stats as JSON to this file ("-" = stderr)`)
		cpuprofile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
		return 1
	}
	defer stopProfiles()

	var sc experiment.Scenario
	fromFile := *scenarioPath != ""
	if fromFile {
		data, err := os.ReadFile(*scenarioPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
			return 1
		}
		if err := json.Unmarshal(data, &sc); err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %s: %v\n", *scenarioPath, err)
			return 1
		}
	}

	// Without -scenario every flag applies (defaults included, the
	// original behavior); with it, only flags the user actually set
	// override the file.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	use := func(name string) bool { return !fromFile || set[name] }

	if use("protocol") {
		p, err := experiment.ParseProtocol(*protoName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
			return 2
		}
		sc.Protocol = p
	}
	if use("workload") {
		w, err := experiment.ParseWorkload(*wlName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
			return 2
		}
		sc.Workload = w
	}
	if use("nodes") {
		sc.Nodes = *nodes
	}
	if use("radius") {
		sc.ZoneRadius = *radius
	}
	if use("spacing") {
		sc.GridSpacing = *spacing
	}
	if use("placement") {
		p, err := experiment.ParsePlacement(*placement)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
			return 2
		}
		sc.Placement = p
	}
	if use("placement-clusters") {
		sc.PlacementClusters = *placeK
	}
	if use("placement-spread") {
		sc.PlacementSpread = *placeSpread
	}
	if use("packets") {
		sc.PacketsPerNode = *packets
	}
	if use("sources") {
		sc.Sources = *sources
	}
	if use("cluster-interest") {
		sc.ClusterInterestProb = *clusterProb
	}
	if use("failures") {
		sc.Failures = *failures
	}
	if use("failure-model") {
		m, err := fault.ParseModel(*failureModel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
			return 2
		}
		sc.FailureCfg.Model = m
	}
	if use("burst-radius") {
		sc.FailureCfg.BurstRadius = *burstRadius
	}
	if use("mobility") {
		sc.Mobility = *mobility
	}
	if use("mobility-model") {
		m, err := experiment.ParseMobilityModel(*mobModel)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
			return 2
		}
		sc.MobilityModel = m
	}
	if use("mobility-period") {
		sc.MobilityPeriod = *mobPeriod
	}
	if use("mobility-fraction") {
		sc.MobilityFraction = *mobFraction
	}
	if use("waypoint-speed-min") {
		sc.WaypointSpeedMin = *wpSpeedMin
	}
	if use("waypoint-speed-max") {
		sc.WaypointSpeedMax = *wpSpeedMax
	}
	if use("waypoint-pause-min") {
		sc.WaypointPauseMin = *wpPauseMin
	}
	if use("waypoint-pause-max") {
		sc.WaypointPauseMax = *wpPauseMax
	}
	if use("carrier-sense") {
		sc.CarrierSense = *carrier
	}
	if use("charge-initial-dbf") {
		sc.ChargeInitialDBF = *chargeDBF
	}
	if use("seed") {
		sc.Seed = *seed
	}
	if use("drain") {
		sc.Drain = *drain
	}
	if use("routes") {
		sc.RouteAlternatives = *altRoutes
	}
	if use("replications") {
		sc.Replications = *replications
	}

	// Fill defaults before running so the printed scenario line shows the
	// values actually simulated (Run would apply them anyway; WithDefaults
	// is idempotent).
	sc = sc.WithDefaults()

	obsWanted := *tracePath != "" || *timelinePath != "" || *runStatsPath != ""
	if experiment.Replications(sc) > 1 {
		if obsWanted {
			fmt.Fprintln(os.Stderr, "spmsim: -trace/-timeline/-run-stats describe a single run and cannot be combined with -replications > 1")
			return 2
		}
		return runReplicated(sc, *parallel, *simWorkers)
	}

	// Observability is an execution knob: the observer watches the run but
	// never changes Result (DESIGN.md §11), so it attaches unconditionally
	// to the same RunWith call.
	var o *obs.RunObserver
	var traceFile *os.File
	if obsWanted {
		o = &obs.RunObserver{}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
				return 1
			}
			traceFile = f
			o.Trace = obs.NewTraceSink(f)
		}
		if *timelinePath != "" {
			tl, err := obs.NewTimeline(*timelineIntv, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
				return 2
			}
			o.Timeline = tl
		}
	}

	start := time.Now()
	res, err := experiment.RunWith(sc, experiment.RunConfig{SimWorkers: *simWorkers, Obs: o})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
		return 1
	}
	wall := time.Since(start).Round(time.Millisecond)

	if code := writeObsOutputs(o, traceFile, *tracePath, *timelinePath, *runStatsPath); code != 0 {
		return code
	}

	fmt.Printf("scenario: %s %s nodes=%d radius=%.1fm packets/node=%d failures=%v mobility=%v seed=%d\n",
		sc.Protocol, sc.Workload, sc.Nodes, sc.ZoneRadius, sc.PacketsPerNode, sc.Failures, sc.Mobility, sc.Seed)
	fmt.Printf("wall clock: %v\n\n", wall)

	fmt.Printf("energy:    total=%.2f µJ   per-packet=%.4f µJ   routing-control=%.2f µJ\n",
		res.TotalEnergy, res.EnergyPerPacket, res.CtrlEnergy)
	fmt.Printf("delay:     mean=%v   p95=%v   max=%v\n", res.MeanDelay, res.P95Delay, res.MaxDelay)
	fmt.Printf("delivery:  %d/%d (%.2f%%) across %d items\n",
		res.Deliveries, res.Expected, 100*res.DeliveryRate, res.Items)
	fmt.Printf("traffic:   ADV=%d REQ=%d DATA=%d drops=%d duplicates=%d\n",
		res.SentADV, res.SentREQ, res.SentDATA, res.Drops, res.Duplicates)
	fmt.Printf("recovery:  timeouts=%d failovers=%d failures-injected=%d\n",
		res.Timeouts, res.Failovers, res.FailuresInjected)
	if sc.Protocol == experiment.SPMS {
		fmt.Printf("routing:   DBF rounds=%d vector-broadcasts=%d mobility-events=%d\n",
			res.DBFRounds, res.DBFBroadcasts, res.MobilityEvents)
	}
	return 0
}

// writeObsOutputs flushes the observability artifacts a finished run
// produced: the streaming trace file, the timeline JSONL, and the run-stats
// JSON. Returns a non-zero exit code on any I/O failure.
func writeObsOutputs(o *obs.RunObserver, traceFile *os.File, tracePath, timelinePath, runStatsPath string) int {
	if o == nil {
		return 0
	}
	if traceFile != nil {
		err := o.Trace.Flush()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: trace %s: %v\n", tracePath, err)
			return 1
		}
	}
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err == nil {
			err = o.Timeline.WriteJSONL(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: timeline %s: %v\n", timelinePath, err)
			return 1
		}
	}
	if runStatsPath != "" {
		data, err := json.MarshalIndent(o.Stats(), "", "  ")
		if err == nil {
			data = append(data, '\n')
			if runStatsPath == "-" {
				_, err = os.Stderr.Write(data)
			} else {
				err = os.WriteFile(runStatsPath, data, 0o644)
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "spmsim: run-stats: %v\n", err)
			return 1
		}
	}
	return 0
}

// startProfiles arms the requested pprof outputs and returns the teardown
// that stops the CPU profile and snapshots the heap. The no-op teardown on
// error keeps the caller's defer unconditional.
func startProfiles(cpuPath, memPath string) (func(), error) {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return func() {}, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return func() {}, err
		}
		return func() {
			pprof.StopCPUProfile()
			f.Close()
			writeHeapProfile(memPath)
		}, nil
	}
	return func() { writeHeapProfile(memPath) }, nil
}

// writeHeapProfile snapshots the heap to path; "" means no profile.
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
		return
	}
	defer f.Close()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
	}
}

// runReplicated runs the scenario's seed-derived trials as a one-point
// campaign and prints per-metric statistics.
func runReplicated(sc experiment.Scenario, workers, simWorkers int) int {
	c, err := campaign.Expand(campaign.Spec{Name: "spmsim", Base: sc})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
		return 1
	}
	start := time.Now()
	reps, err := c.Run(campaign.RunOptions{Workers: workers, SimWorkers: simWorkers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spmsim: %v\n", err)
		return 1
	}
	wall := time.Since(start).Round(time.Millisecond)

	fmt.Printf("scenario: %s %s nodes=%d radius=%.1fm packets/node=%d failures=%v mobility=%v seed=%d replications=%d\n",
		sc.Protocol, sc.Workload, sc.Nodes, sc.ZoneRadius, sc.PacketsPerNode, sc.Failures, sc.Mobility, sc.Seed,
		experiment.Replications(sc))
	fmt.Printf("wall clock: %v\n\n", wall)

	names := experiment.ResultMetricNames()
	fmt.Printf("%-22s %14s %14s %14s %14s %14s\n", "metric", "mean", "std", "ci95", "min", "max")
	for i, s := range experiment.AggregateResults(reps[0]) {
		fmt.Printf("%-22s %14.4f %14.4f %14.4f %14.4f %14.4f\n", names[i], s.Mean, s.Std, s.CI95, s.Min, s.Max)
	}
	return 0
}
