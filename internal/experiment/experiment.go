// Package experiment wires every substrate into one runnable scenario. A
// Scenario is a complete, seeded description of one simulation run;
// RunWith executes it deterministically and returns the measured energy,
// delay, and protocol counters. Running many scenarios — grids,
// replicates, the paper's figures — is package campaign's job.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dissem"
	"repro/internal/fault"
	"repro/internal/flood"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/spin"
	"repro/internal/topo"
	"repro/internal/workload"
	"repro/internal/zone"
)

// Protocol selects the dissemination protocol under test.
type Protocol int

// Protocols under test.
const (
	SPMS Protocol = iota + 1
	SPIN
	Flooding
)

// String names the protocol as the paper does (the figure tables add the
// F- prefix to failure-scenario columns).
func (p Protocol) String() string {
	switch p {
	case SPMS:
		return "SPMS"
	case SPIN:
		return "SPIN"
	case Flooding:
		return "FLOOD"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// WorkloadKind selects the §5 communication pattern.
type WorkloadKind int

// Workload kinds.
const (
	AllToAll WorkloadKind = iota + 1
	Clustered
)

// PlacementKind selects the node-placement model. The zero value is the
// paper's square grid, so pre-existing scenarios are untouched by the
// model registry (the zero-value-compatibility contract, DESIGN.md §9).
type PlacementKind int

// Placement models.
const (
	PlaceGrid      PlacementKind = iota // §5.1 square grid (the zero value)
	PlaceUniform                        // uniform random over the field square
	PlaceChain                          // §4 analytic straight line
	PlaceClustered                      // Gaussian blobs around seeded centers
)

// MobilityKind selects the mobility model. The zero value is the paper's
// periodic fractional relocation (§5.1.3).
type MobilityKind int

// Mobility models.
const (
	MobRelocate MobilityKind = iota // §5.1.3 teleporting relocation (the zero value)
	MobWaypoint                     // random waypoint with speed/pause ranges
)

// Scenario is one fully specified simulation run. The JSON form (tags
// below, codecs in json.go) is the wire format of campaign spec files and
// result-sink tagging: protocols, workloads, and models appear as names
// ("spms", "all-to-all", "clustered") and durations as Go duration strings
// ("2.5ms"). Every model-selection field's zero value is the paper's
// model, so a scenario written before the model registry existed runs —
// and serializes — exactly as it always did.
type Scenario struct {
	Protocol Protocol     `json:"protocol,omitempty"`
	Workload WorkloadKind `json:"workload,omitempty"`

	// Topology. Nodes are placed on a square grid with GridSpacing meters
	// between neighbors; the radio is a MICA2 scaled so maximum range is
	// ZoneRadius meters.
	Nodes       int     `json:"nodes,omitempty"`
	GridSpacing float64 `json:"gridSpacing,omitempty"`
	ZoneRadius  float64 `json:"zoneRadius,omitempty"`

	// Placement selects the node layout. Uniform and clustered layouts
	// span the same square the grid would occupy (keeping density
	// comparable at fixed n); chain is the §4 line. PlacementClusters and
	// PlacementSpread parameterize the clustered model: k Gaussian blobs
	// with per-axis deviation of spread meters (defaults: 4 clusters,
	// 2·GridSpacing spread).
	Placement         PlacementKind `json:"placement,omitempty"`
	PlacementClusters int           `json:"placementClusters,omitempty"`
	PlacementSpread   float64       `json:"placementSpread,omitempty"`

	// Traffic. Sources restricts origination to the first Sources node ids
	// (0 = every node originates, the paper's workloads). Limiting sources
	// decouples traffic volume from field size — the knob that makes
	// 10⁵-node fields simulable.
	PacketsPerNode      int           `json:"packetsPerNode,omitempty"`
	Sources             int           `json:"sources,omitempty"`
	MeanArrival         time.Duration `json:"meanArrival,omitempty"`
	ClusterInterestProb float64       `json:"clusterInterestProb,omitempty"` // Clustered only; default 5%

	// Failures. FailureCfg.Model selects the process — the paper's
	// transient model (§5.1.2, the zero value), permanent crash-stop, or
	// spatially correlated bursts. A FailureCfg that sets nothing but the
	// model (and, for bursts, the radius) inherits Table 1's timing
	// defaults; a fully zero FailureCfg means fault.DefaultConfig, exactly
	// as before the model registry.
	Failures   bool         `json:"failures,omitempty"`
	FailureCfg fault.Config `json:"failureConfig"`

	// Mobility (§5.1.3): every MobilityPeriod a mobility event fires and
	// (for SPMS) routing re-converges, charged as control energy. The
	// model decides what an event does: MobRelocate teleports
	// MobilityFraction of the nodes to random positions (the paper's
	// model); MobWaypoint advances the same fraction of nodes along
	// random-waypoint trajectories, each leg at a uniform speed from
	// [WaypointSpeedMin, WaypointSpeedMax] m/s with arrival pauses from
	// [WaypointPauseMin, WaypointPauseMax].
	Mobility         bool          `json:"mobility,omitempty"`
	MobilityModel    MobilityKind  `json:"mobilityModel,omitempty"`
	MobilityPeriod   time.Duration `json:"mobilityPeriod,omitempty"`
	MobilityFraction float64       `json:"mobilityFraction,omitempty"`
	WaypointSpeedMin float64       `json:"waypointSpeedMin,omitempty"`
	WaypointSpeedMax float64       `json:"waypointSpeedMax,omitempty"`
	WaypointPauseMin time.Duration `json:"waypointPauseMin,omitempty"`
	WaypointPauseMax time.Duration `json:"waypointPauseMax,omitempty"`

	// Protocol tuning.
	SPMSConfig        core.Config `json:"spmsConfig"`                  // zero value means core.DefaultConfig
	RouteAlternatives int         `json:"routeAlternatives,omitempty"` // SPMS routing entries per destination; 0 = 2
	ChargeInitialDBF  bool        `json:"chargeInitialDBF,omitempty"`  // charge the initial convergence, not just re-runs

	// CarrierSense enables shared-channel serialization in the network
	// layer (see network.Config). Off for all figure reproductions; the MAC
	// ablation benchmark turns it on.
	CarrierSense bool `json:"carrierSense,omitempty"`

	// Run control.
	Seed  int64         `json:"seed,omitempty"`
	Drain time.Duration `json:"drain,omitempty"` // extra simulated time after the last origination

	// Replications is how many independent trials this scenario stands
	// for: replicate i runs with ReplicateSeed(Seed, i) and everything
	// else identical. 0 and 1 both mean a single trial (exactly the
	// pre-replication behavior); RunWith executes one trial regardless —
	// the fan-out lives in the campaign trial pool (internal/campaign).
	Replications int `json:"replications,omitempty"`
}

// Defaults used when a Scenario leaves fields zero.
const (
	DefaultDrain       = 3 * time.Second
	DefaultGridSpacing = topo.DefaultGridSpacing

	// Clustered placement: 4 blobs spread 2·GridSpacing meters each.
	DefaultPlacementClusters = 4

	// Waypoint mobility: brisk 5–15 m/s legs with up to 100 ms pauses, so
	// a short simulated run still sees real topology churn.
	DefaultWaypointSpeedMin = 5.0
	DefaultWaypointSpeedMax = 15.0
	DefaultWaypointPauseMax = 100 * time.Millisecond
)

// mobilityActiveTail is how far past the last origination mobility events
// keep firing: an allowance for in-flight dissemination.
const mobilityActiveTail = 500 * time.Millisecond

// WithDefaults returns a copy with every unset field filled with the
// package default — the exact scenario Run executes. Campaign expansion
// applies it so every emitted parameter tuple is fully explicit.
func (s Scenario) WithDefaults() Scenario {
	if s.GridSpacing == 0 {
		s.GridSpacing = DefaultGridSpacing
	}
	if s.PacketsPerNode == 0 {
		s.PacketsPerNode = workload.DefaultPacketsPerNode
	}
	if s.MeanArrival == 0 {
		s.MeanArrival = workload.DefaultMeanArrival
	}
	if s.ClusterInterestProb == 0 {
		s.ClusterInterestProb = workload.DefaultClusterInterestProb
	}
	if s.Placement == PlaceClustered {
		if s.PlacementClusters == 0 {
			s.PlacementClusters = DefaultPlacementClusters
		}
		if s.PlacementSpread == 0 {
			s.PlacementSpread = 2 * s.GridSpacing
		}
	}
	if s.Failures {
		// A config that sets nothing beyond the model selection (model,
		// burst radius) inherits Table 1's timing; a config with any
		// explicit timing is taken literally — exactly the pre-registry
		// rule, which only special-cased the fully zero config.
		timing := s.FailureCfg
		timing.Model, timing.BurstRadius = 0, 0
		if timing == (fault.Config{}) {
			d := fault.DefaultConfig()
			d.Model, d.BurstRadius = s.FailureCfg.Model, s.FailureCfg.BurstRadius
			s.FailureCfg = d
		}
		if s.FailureCfg.Model == fault.Burst && s.FailureCfg.BurstRadius == 0 {
			// One zone radius knocks out a node's whole reachable region —
			// the stressor the protocol's multipath failover targets.
			s.FailureCfg.BurstRadius = s.ZoneRadius
		}
	}
	if s.Mobility {
		if s.MobilityPeriod == 0 {
			s.MobilityPeriod = 100 * time.Millisecond
		}
		if s.MobilityFraction == 0 {
			s.MobilityFraction = 0.05
		}
		if s.MobilityModel == MobWaypoint {
			if s.WaypointSpeedMax == 0 {
				s.WaypointSpeedMax = DefaultWaypointSpeedMax
			}
			if s.WaypointSpeedMin == 0 {
				// Clamp so an explicit slow max (below the default min)
				// yields a fixed speed instead of an inverted range.
				s.WaypointSpeedMin = DefaultWaypointSpeedMin
				if s.WaypointSpeedMin > s.WaypointSpeedMax {
					s.WaypointSpeedMin = s.WaypointSpeedMax
				}
			}
			if s.WaypointPauseMax == 0 {
				s.WaypointPauseMax = DefaultWaypointPauseMax
			}
		}
	}
	if s.SPMSConfig == (core.Config{}) {
		s.SPMSConfig = core.DefaultConfig()
	}
	if s.RouteAlternatives == 0 {
		s.RouteAlternatives = routing.DefaultAlternatives
	}
	if s.Drain == 0 {
		s.Drain = DefaultDrain
	}
	return s
}

// Validate rejects unusable scenarios. Zero values that WithDefaults
// fills (packets, arrival, spacing, drain, …) are accepted; explicit
// nonsense — negative counts or durations, probabilities outside [0,1] —
// is not, so a hand-written campaign spec fails loudly instead of
// simulating garbage.
func (s Scenario) Validate() error {
	if !protocols.Has(s.Protocol) {
		return fmt.Errorf("experiment: unknown protocol %d", int(s.Protocol))
	}
	if !workloads.Has(s.Workload) {
		return fmt.Errorf("experiment: unknown workload %d", int(s.Workload))
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("experiment: non-positive node count %d", s.Nodes)
	}
	if s.GridSpacing < 0 {
		return fmt.Errorf("experiment: negative grid spacing %v", s.GridSpacing)
	}
	if s.ZoneRadius <= 0 {
		return fmt.Errorf("experiment: non-positive zone radius %v", s.ZoneRadius)
	}
	if !placements.Has(s.Placement) {
		return fmt.Errorf("experiment: unknown placement %d", int(s.Placement))
	}
	if s.PlacementClusters < 0 {
		return fmt.Errorf("experiment: negative placement clusters %d", s.PlacementClusters)
	}
	if s.PlacementSpread < 0 {
		return fmt.Errorf("experiment: negative placement spread %v", s.PlacementSpread)
	}
	if s.PacketsPerNode < 0 {
		return fmt.Errorf("experiment: negative packets per node %d", s.PacketsPerNode)
	}
	if s.Sources < 0 || s.Sources > s.Nodes {
		return fmt.Errorf("experiment: source count %d outside [0,%d]", s.Sources, s.Nodes)
	}
	if s.MeanArrival < 0 {
		return fmt.Errorf("experiment: negative mean arrival %v", s.MeanArrival)
	}
	if s.ClusterInterestProb < 0 || s.ClusterInterestProb > 1 {
		return fmt.Errorf("experiment: cluster interest probability %v outside [0,1]", s.ClusterInterestProb)
	}
	// The model enum is checked even with failures off (like Placement and
	// MobilityModel): an unnamable numeric model would otherwise survive
	// to fail Scenario marshaling mid-campaign. The full config is only
	// validated when it will actually run.
	if m := s.FailureCfg.Model; !m.Valid() {
		return fmt.Errorf("experiment: unknown failure model %d", int(m))
	}
	if s.Failures && s.FailureCfg != (fault.Config{}) {
		if err := s.FailureCfg.Validate(); err != nil {
			return fmt.Errorf("experiment: %w", err)
		}
	}
	if !mobilityModels.Has(s.MobilityModel) {
		return fmt.Errorf("experiment: unknown mobility model %d", int(s.MobilityModel))
	}
	if s.MobilityPeriod < 0 {
		return fmt.Errorf("experiment: negative mobility period %v", s.MobilityPeriod)
	}
	if s.MobilityFraction < 0 || s.MobilityFraction > 1 {
		return fmt.Errorf("experiment: mobility fraction %v outside [0,1]", s.MobilityFraction)
	}
	if s.WaypointSpeedMin < 0 || s.WaypointSpeedMax < 0 {
		return fmt.Errorf("experiment: negative waypoint speed [%v, %v]", s.WaypointSpeedMin, s.WaypointSpeedMax)
	}
	if s.WaypointSpeedMax != 0 && s.WaypointSpeedMax < s.WaypointSpeedMin {
		return fmt.Errorf("experiment: waypoint speed range [%v, %v] inverted", s.WaypointSpeedMin, s.WaypointSpeedMax)
	}
	if s.WaypointPauseMin < 0 || s.WaypointPauseMax < 0 {
		return fmt.Errorf("experiment: negative waypoint pause [%v, %v]", s.WaypointPauseMin, s.WaypointPauseMax)
	}
	if s.WaypointPauseMax != 0 && s.WaypointPauseMax < s.WaypointPauseMin {
		return fmt.Errorf("experiment: waypoint pause window [%v, %v] inverted", s.WaypointPauseMin, s.WaypointPauseMax)
	}
	if s.RouteAlternatives < 0 {
		return fmt.Errorf("experiment: negative route alternatives %d", s.RouteAlternatives)
	}
	if s.Drain < 0 {
		return fmt.Errorf("experiment: negative drain %v", s.Drain)
	}
	if s.Replications < 0 {
		return fmt.Errorf("experiment: negative replications %d", s.Replications)
	}
	return nil
}

// Result is the outcome of one Run. The JSON form is what campaign result
// sinks stream; durations serialize as integer nanoseconds (exact, easy to
// post-process), energies as µJ floats.
type Result struct {
	// Energy, in microjoules.
	TotalEnergy     float64 `json:"totalEnergy"`
	EnergyPerPacket float64 `json:"energyPerPacket"` // total / originated items
	CtrlEnergy      float64 `json:"ctrlEnergy"`      // routing-convergence share

	// Delay.
	MeanDelay time.Duration `json:"meanDelayNs"`
	P95Delay  time.Duration `json:"p95DelayNs"`
	MaxDelay  time.Duration `json:"maxDelayNs"`

	// Delivery accounting.
	Items        int     `json:"items"`      // data items originated
	Deliveries   int     `json:"deliveries"` // distinct (node, item) deliveries
	Expected     int     `json:"expected"`   // deliveries a lossless run would make
	DeliveryRate float64 `json:"deliveryRate"`

	// Protocol event counters.
	Timeouts   uint64 `json:"timeouts"`
	Failovers  uint64 `json:"failovers"`
	Drops      uint64 `json:"drops"`
	Duplicates uint64 `json:"duplicates"`
	SentADV    uint64 `json:"sentADV"`
	SentREQ    uint64 `json:"sentREQ"`
	SentDATA   uint64 `json:"sentDATA"`

	// Routing.
	DBFRounds      int `json:"dbfRounds"`     // initial convergence rounds
	DBFBroadcasts  int `json:"dbfBroadcasts"` // initial convergence vector broadcasts
	MobilityEvents int `json:"mobilityEvents"`

	// Failure injection.
	FailuresInjected int `json:"failuresInjected"`
}

// RunConfig carries execution knobs that are not part of the scenario's
// identity: they change how fast a run computes, never what it computes, so
// they live outside the Scenario — campaign sink output stays byte-identical
// whatever they are set to.
type RunConfig struct {
	// SimWorkers bounds the goroutines the run's data-parallel kernels use
	// (SPMS's graph builds with their neighbor-cache warmup, DBF rounds,
	// route derivation); SPIN and flooding build caches lazily either way.
	// 0 or 1 means serial. Counts above GOMAXPROCS are used as given, not
	// clamped: zone.Workers caps only at zone.MaxWorkers (DESIGN.md §10).
	// The event loop itself is always single-threaded (DESIGN.md §5.1);
	// results are byte-identical at every worker count (DESIGN.md §10).
	SimWorkers int

	// Obs attaches run-lifecycle observability: phase timing and kernel
	// stats always, plus timeline sampling and trace export when the
	// observer carries those sinks. Nil observes nothing. Like SimWorkers
	// it is an execution knob, not scenario identity: the Result is
	// byte-identical with observability on or off (DESIGN.md §11).
	Obs *obs.RunObserver
}

// RunWith executes the scenario to completion under the execution knobs
// in cfg (the zero RunConfig is a serial, unobserved run) and collects
// metrics.
func RunWith(sc Scenario, cfg RunConfig) (Result, error) {
	sc = sc.WithDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	workers := zone.Workers(cfg.SimWorkers)
	o := cfg.Obs
	o.BeginRun()

	model, err := radio.ScaledMICA2(sc.ZoneRadius)
	if err != nil {
		return Result{}, err
	}

	sched := sim.NewScheduler()
	root := sim.NewRNG(sc.Seed)
	// Fork order is part of the determinism contract: each subsystem owns
	// a stream, and placeRNG forks last so pre-registry scenarios (whose
	// grid placement draws nothing) keep their historical streams.
	wlRNG := root.Fork()
	netRNG := root.Fork()
	failRNG := root.Fork()
	mobRNG := root.Fork()
	placeRNG := root.Fork()

	topoSpan := o.StartPhase(obs.PhaseTopology)
	field, err := buildField(sc, model, placeRNG)
	if err != nil {
		return Result{}, err
	}
	topoSpan.End()

	// The model phase runs from here to the event loop, paused around the
	// initial route computation so the phases partition the run.
	modelSpan := o.StartPhase(obs.PhaseModel)
	nw, err := network.New(sched, field, netRNG, network.Config{
		Sizes:        packet.DefaultSizes(),
		MAC:          mac.AnalyticConfig(),
		CarrierSense: sc.CarrierSense,
	})
	if err != nil {
		return Result{}, err
	}
	if o != nil && o.Trace != nil {
		installTrace(nw, sched, o.Trace)
	}
	ledger := dissem.NewLedger()

	var gen *workload.Generator
	switch sc.Workload {
	case AllToAll:
		gen, err = workload.AllToAllSources(sc.Nodes, sc.Sources, sc.PacketsPerNode, sc.MeanArrival, wlRNG)
	case Clustered:
		gen, err = workload.ClusteredSources(field, sc.Sources, sc.PacketsPerNode, sc.MeanArrival, sc.ClusterInterestProb, wlRNG)
	}
	if err != nil {
		return Result{}, err
	}
	ledger.Reserve(gen.Items())

	var (
		proto  dissem.Protocol
		spms   *core.System
		tables *routing.Tables
	)
	switch sc.Protocol {
	case SPMS:
		modelSpan.End()
		routeSpan := o.StartPhase(obs.PhaseRoutes)
		tables = routing.ComputeWorkers(routing.BuildGraphWorkers(field, workers), sc.RouteAlternatives, workers)
		routeSpan.End()
		modelSpan = o.StartPhase(obs.PhaseModel)
		if sc.ChargeInitialDBF {
			routing.ChargeConvergenceEnergy(tables, field, nw.Sizes(), nw.Energy())
		}
		spms, err = core.NewSystem(nw, ledger, gen.Interest(), tables, sc.SPMSConfig)
		proto = spms
	case SPIN:
		var sys *spin.System
		sys, err = spin.NewSystem(nw, ledger, gen.Interest(), spin.DefaultConfig())
		proto = sys
	case Flooding:
		proto, err = newFloodSystem(nw, ledger, gen.Interest())
	}
	if err != nil {
		return Result{}, err
	}

	res := Result{}
	if tables != nil {
		res.DBFRounds = tables.Rounds()
		res.DBFBroadcasts = tables.Broadcasts()
	}

	var injector *fault.Injector
	if sc.Failures {
		injector, err = fault.NewInjector(sc.FailureCfg, sched, failRNG, nw)
		if err != nil {
			return Result{}, err
		}
		injector.SetLocator(field)
		if err := injector.Start(); err != nil {
			return Result{}, err
		}
	}

	horizon := gen.Horizon() + sc.Drain
	if sc.Mobility {
		// Mobility events cover the traffic-carrying part of the run: the
		// origination window plus a dissemination allowance. The drain tail
		// exists only to let queues empty; charging re-convergences during
		// dead air would bias the energy comparison.
		activeEnd := gen.Horizon() + mobilityActiveTail
		if activeEnd > horizon {
			activeEnd = horizon
		}
		if err := scheduleMobility(&res, sc, sched, field, mobRNG, nw, spms, activeEnd, workers, o); err != nil {
			return Result{}, err
		}
	}
	if o != nil && o.Timeline != nil {
		scheduleTimeline(sched, nw, o.Timeline, horizon)
	}

	gen.Schedule(sched, proto)
	modelSpan.End()
	eventSpan := o.StartPhase(obs.PhaseEvents)
	if err := sched.Run(horizon); err != nil {
		return Result{}, err
	}
	eventSpan.End()
	o.RecordKernel(sched.Dispatched(), sched.PeakHeapDepth(), sched.ArenaSize())
	o.EndRun()

	fillResult(&res, gen, ledger, nw)
	if injector != nil {
		res.FailuresInjected = injector.Stats().Injected
	}
	// The run is over and read: its event and flight arrays go to the next
	// run in the process (DESIGN.md §3), outside the observed wall time.
	sched.Release()
	nw.Release()
	return res, nil
}

// newFloodSystem adapts the flooding baseline to the common constructor
// shape.
func newFloodSystem(nw *network.Network, ledger *dissem.Ledger, interest dissem.Interest) (dissem.Protocol, error) {
	return flood.NewSystem(nw, ledger, interest, network.DefaultProc)
}

// buildField constructs the scenario's node layout. Uniform and clustered
// placements span the same square the grid layout would occupy (side =
// (GridSide(n)-1)·spacing), keeping node density comparable across
// placement models at a fixed node count.
func buildField(sc Scenario, model *radio.Model, rng *sim.RNG) (*topo.Field, error) {
	switch sc.Placement {
	case PlaceGrid:
		return topo.NewGridField(sc.Nodes, sc.GridSpacing, model)
	case PlaceUniform:
		return topo.NewUniformField(sc.Nodes, placementBounds(sc), model, rng)
	case PlaceChain:
		return topo.NewChainField(sc.Nodes, sc.GridSpacing, model)
	case PlaceClustered:
		return topo.NewClusteredField(sc.Nodes, sc.PlacementClusters, sc.PlacementSpread, placementBounds(sc), model, rng)
	default:
		return nil, fmt.Errorf("experiment: unknown placement %d", int(sc.Placement))
	}
}

// placementBounds is the field square the random placements draw in: the
// rectangle the same node count would occupy on the grid.
func placementBounds(sc Scenario) geom.Rect {
	side := float64(geom.GridSide(sc.Nodes)-1) * sc.GridSpacing
	return geom.Rect{Max: geom.Point{X: side, Y: side}}
}

// scheduleMobility arms the recurring mobility events of the scenario's
// model — per-event teleport relocation (MobRelocate, the paper's §5.1.3)
// or continuous random-waypoint advancement (MobWaypoint). Re-convergence
// is instantaneous in virtual time (a documented simplification; see
// DESIGN.md) but its radio traffic is fully charged as control energy —
// the §5.1.3 cost model, applied identically under both models.
func scheduleMobility(res *Result, sc Scenario, sched *sim.Scheduler, field *topo.Field,
	rng *sim.RNG, nw *network.Network, spms *core.System, horizon time.Duration, workers int,
	o *obs.RunObserver) error {
	step := func() { field.RelocateFraction(sc.MobilityFraction, rng) }
	if sc.MobilityModel == MobWaypoint {
		wp, err := topo.NewWaypoint(field, topo.WaypointConfig{
			SpeedMin: sc.WaypointSpeedMin,
			SpeedMax: sc.WaypointSpeedMax,
			PauseMin: sc.WaypointPauseMin,
			PauseMax: sc.WaypointPauseMax,
		}, sc.MobilityFraction, rng)
		if err != nil {
			return err
		}
		step = func() { wp.Advance(sc.MobilityPeriod) }
	}
	var tick sim.ArgHandler
	tick = func(uint64) {
		if sched.Now() >= horizon {
			return
		}
		step()
		res.MobilityEvents++
		if spms != nil {
			span := o.StartPhase(obs.PhaseMobilityRoutes)
			fresh := routing.ComputeWorkers(routing.BuildGraphWorkers(field, workers), sc.RouteAlternatives, workers)
			span.End()
			spms.SetTables(fresh)
			routing.ChargeConvergenceEnergy(fresh, field, nw.Sizes(), nw.Energy())
		}
		sched.AfterArg(sc.MobilityPeriod, tick, 0)
	}
	sched.AfterArg(sc.MobilityPeriod, tick, 0)
	return nil
}

// fillResult converts raw collectors into the Result summary.
func fillResult(res *Result, gen *workload.Generator, ledger *dissem.Ledger, nw *network.Network) {
	breakdown := nw.Energy().TotalBreakdown()
	res.TotalEnergy = float64(breakdown.Total())
	res.CtrlEnergy = float64(breakdown.Ctrl)
	res.Items = gen.Items()
	if res.Items > 0 {
		res.EnergyPerPacket = res.TotalEnergy / float64(res.Items)
	}
	res.MeanDelay = ledger.Delays().Mean()
	res.P95Delay = ledger.Delays().Percentile(95)
	res.MaxDelay = ledger.Delays().Max()
	res.Deliveries = ledger.Deliveries()
	res.Expected = gen.ExpectedDeliveries()
	if res.Expected > 0 {
		res.DeliveryRate = float64(res.Deliveries) / float64(res.Expected)
	}
	c := nw.Counters()
	res.Timeouts = c.Timeouts
	res.Failovers = c.Failovers
	res.Drops = c.Drops
	res.Duplicates = c.Duplicates
	res.SentADV = c.Sent[packet.ADV]
	res.SentREQ = c.Sent[packet.REQ]
	res.SentDATA = c.Sent[packet.DATA]
}
