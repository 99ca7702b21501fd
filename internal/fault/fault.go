// Package fault injects node failures into a simulation. Three models are
// supported, selected by Config.Model:
//
//   - Transient (the zero value): the paper's §5.1.2 model. Each node runs
//     its own fail → repair → fail clock with exponential inter-arrival
//     times and uniform repair times; recovery is always successful.
//   - Crash: crash-stop. Each node draws one exponential time-to-failure
//     and, once failed, never recovers — the classic fail-stop stressor.
//   - Burst: spatially correlated failures. Burst events arrive as a
//     single Poisson process; each event picks a uniform random epicenter
//     in the field and fails every node within BurstRadius of it at once,
//     each repairing after its own uniform repair time. This is the
//     "region knocked out" scenario the paper's multipath failover is
//     designed to survive.
//
// While failed, a node drops every received message and cancels scheduled
// transmissions (the network layer implements Target).
package fault

import (
	"fmt"
	"time"

	"repro/internal/enum"
	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/sim"
)

// Model selects the failure process. The zero value is Transient, the
// paper's model, so pre-existing configurations are unchanged.
type Model int

// Failure models.
const (
	Transient Model = iota
	Crash
	Burst
)

// models holds the failure models' wire names.
var models = enum.New("fault", "failure model", "transient | crash | burst", map[Model][]string{
	Transient: {"transient"},
	Crash:     {"crash"},
	Burst:     {"burst"},
})

// String names the model as spec files and flags do.
func (m Model) String() string { return models.String(m) }

// Valid reports whether m is one of the failure models.
func (m Model) Valid() bool { return models.Has(m) }

// MarshalText writes the model name.
func (m Model) MarshalText() ([]byte, error) { return models.Marshal(m) }

// UnmarshalText reads a model name in any case.
func (m *Model) UnmarshalText(text []byte) error { return models.Unmarshal(text, m) }

// UnmarshalJSON accepts a model name or its numeric value.
func (m *Model) UnmarshalJSON(data []byte) error { return models.DecodeJSON(data, m) }

// Config parameterizes the injector. Table 1: mean failure inter-arrival
// λ = 50 ms, MTTR = 10 ms (we center a uniform window on it).
type Config struct {
	// Model selects the failure process; the zero value is Transient.
	Model Model
	// MeanInterArrival is the mean of the exponential gap between
	// failures: per node from its previous recovery (Transient), per node
	// from simulation start to its one crash (Crash), or between burst
	// events globally (Burst). With Table 1's numbers a Transient node is
	// down MTTR/(MTTR+λ) ≈ 1/6 of the time.
	MeanInterArrival time.Duration
	// RepairMin and RepairMax bound the uniform repair duration
	// (Transient and Burst; Crash never repairs).
	RepairMin time.Duration
	RepairMax time.Duration
	// BurstRadius is the epicenter radius in meters of a Burst event:
	// every alive, unprotected node within it fails at once. Burst only.
	BurstRadius float64
}

// DefaultConfig returns Table 1's failure parameters: transient failures
// with exponential inter-arrival of mean 50 ms and uniform repair on
// (5 ms, 15 ms), giving the stated MTTR of 10 ms.
func DefaultConfig() Config {
	return Config{
		MeanInterArrival: 50 * time.Millisecond,
		RepairMin:        5 * time.Millisecond,
		RepairMax:        15 * time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !c.Model.Valid() {
		return fmt.Errorf("fault: unknown failure model %d", int(c.Model))
	}
	if c.MeanInterArrival <= 0 {
		return fmt.Errorf("fault: non-positive mean inter-arrival %v", c.MeanInterArrival)
	}
	if c.RepairMin < 0 || c.RepairMax < c.RepairMin {
		return fmt.Errorf("fault: invalid repair window [%v, %v]", c.RepairMin, c.RepairMax)
	}
	if c.Model == Burst && c.BurstRadius <= 0 {
		return fmt.Errorf("fault: burst model needs a positive radius, got %v", c.BurstRadius)
	}
	if c.BurstRadius < 0 {
		return fmt.Errorf("fault: negative burst radius %v", c.BurstRadius)
	}
	// A positive BurstRadius under a non-burst model is allowed and
	// ignored, like any other unselected model's parameters — it keeps
	// failureModel × burstRadius campaign cross-sweeps expandable.
	return nil
}

// MTTR returns the mean repair time of the configuration.
func (c Config) MTTR() time.Duration { return (c.RepairMin + c.RepairMax) / 2 }

// Target is the interface the injector drives. The network layer implements
// it: Fail marks a node down (dropping traffic addressed to it), Recover
// brings it back.
type Target interface {
	// N returns the node population size.
	N() int
	// Alive reports whether a node is currently up.
	Alive(id packet.NodeID) bool
	// Fail marks the node down.
	Fail(id packet.NodeID)
	// Recover marks the node up.
	Recover(id packet.NodeID)
}

// Locator supplies node positions and the field rectangle — what the Burst
// model needs to pick epicenters and resolve their radius ball.
// topo.Field implements it.
type Locator interface {
	Pos(id packet.NodeID) geom.Point
	Bounds() geom.Rect
}

// Stats summarizes injector activity.
type Stats struct {
	Injected      int           // failures injected
	Repairs       int           // recoveries completed
	TotalDowntime time.Duration // sum of injected repair durations
	Bursts        int           // burst events fired (Burst model only)
}

// Injector schedules failures onto a simulation according to the
// configured model.
type Injector struct {
	cfg    Config
	sched  *sim.Scheduler
	rng    *sim.RNG
	target Target
	loc    Locator // required by Burst, set via SetLocator
	stats  Stats
	// protected optionally exempts nodes (e.g. a sink) from failures.
	protected map[packet.NodeID]bool
	running   bool

	// OnBurst, if set, observes each burst event: the epicenter and the
	// ids failed by it (ascending). A diagnostics/test hook; production
	// scenarios leave it nil.
	OnBurst func(epicenter geom.Point, failed []packet.NodeID)

	// The event handlers, bound once so scheduling allocates nothing. The
	// node events carry the node id as their argument.
	failFn, repairFn, recoverFn, burstFn sim.ArgHandler
}

// NewInjector builds an injector. All dependencies are required; a Burst
// configuration additionally needs SetLocator before Start.
func NewInjector(cfg Config, sched *sim.Scheduler, rng *sim.RNG, target Target) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil || rng == nil || target == nil {
		return nil, fmt.Errorf("fault: nil dependency (sched=%v rng=%v target=%v)",
			sched != nil, rng != nil, target != nil)
	}
	in := &Injector{
		cfg:       cfg,
		sched:     sched,
		rng:       rng,
		target:    target,
		protected: make(map[packet.NodeID]bool),
	}
	in.failFn = in.failNode
	in.repairFn = in.repairNode
	in.recoverFn = in.recoverNode
	in.burstFn = in.fireBurst
	return in, nil
}

// SetLocator attaches the position source the Burst model requires. Must
// be called before Start.
func (in *Injector) SetLocator(loc Locator) {
	if in.running {
		panic("fault: SetLocator after Start")
	}
	in.loc = loc
}

// Protect exempts a node from failure injection (the paper never fails the
// original data source before any neighbor has the data; experiments use
// this to keep scenarios meaningful). Must be called before Start.
func (in *Injector) Protect(id packet.NodeID) {
	if in.running {
		panic("fault: Protect after Start")
	}
	in.protected[id] = true
}

// Stats returns a snapshot of injector activity.
func (in *Injector) Stats() Stats { return in.stats }

// Start begins injecting failures until the simulation ends. Calling Start
// twice is an error: doubled clocks would halve the effective inter-arrival
// time.
func (in *Injector) Start() error {
	if in.running {
		return fmt.Errorf("fault: injector already started")
	}
	if in.cfg.Model == Burst && in.loc == nil {
		return fmt.Errorf("fault: burst model needs a locator (SetLocator)")
	}
	in.running = true
	switch in.cfg.Model {
	case Burst:
		in.scheduleBurst()
	default: // Transient and Crash run one clock per node.
		for i := 0; i < in.target.N(); i++ {
			id := packet.NodeID(i)
			if in.protected[id] {
				continue
			}
			in.scheduleNodeFailure(id)
		}
	}
	return nil
}

// scheduleNodeFailure arms node id's next failure after an exponential
// up-time.
func (in *Injector) scheduleNodeFailure(id packet.NodeID) {
	gap := in.rng.ExpDuration(in.cfg.MeanInterArrival)
	in.sched.AfterArg(gap, in.failFn, uint64(id))
}

// failNode takes node arg down per the model: Transient schedules the
// recovery that re-arms the next failure; Crash fails permanently.
func (in *Injector) failNode(arg uint64) {
	id := packet.NodeID(arg)
	if !in.target.Alive(id) {
		if in.cfg.Model == Crash {
			// Someone else already killed it; crash-stop has nothing to add.
			return
		}
		// Someone else (a test, another injector) already failed it; try
		// again after another up-time.
		in.scheduleNodeFailure(id)
		return
	}
	if in.cfg.Model == Crash {
		in.target.Fail(id)
		in.stats.Injected++
		return
	}
	repair := in.rng.UniformDuration(in.cfg.RepairMin, in.cfg.RepairMax)
	in.target.Fail(id)
	in.stats.Injected++
	in.stats.TotalDowntime += repair
	in.sched.AfterArg(repair, in.repairFn, arg)
}

// repairNode ends a Transient failure of node arg and arms its next one.
func (in *Injector) repairNode(arg uint64) {
	in.recoverNode(arg)
	in.scheduleNodeFailure(packet.NodeID(arg))
}

// recoverNode brings node arg back up.
func (in *Injector) recoverNode(arg uint64) {
	in.target.Recover(packet.NodeID(arg))
	in.stats.Repairs++
}

// scheduleBurst arms the next burst event after an exponential gap on the
// single global burst clock.
func (in *Injector) scheduleBurst() {
	gap := in.rng.ExpDuration(in.cfg.MeanInterArrival)
	in.sched.AfterArg(gap, in.burstFn, 0)
}

// fireBurst picks a uniform random epicenter and fails every alive,
// unprotected node within BurstRadius of it. Each victim repairs after its
// own uniform repair time (drawn in ascending id order, so a seed fully
// determines the event).
func (in *Injector) fireBurst(uint64) {
	epi := in.loc.Bounds().UniformPoint(in.rng.Float64)
	r2 := in.cfg.BurstRadius * in.cfg.BurstRadius
	var failed []packet.NodeID
	for i := 0; i < in.target.N(); i++ {
		id := packet.NodeID(i)
		if in.protected[id] || !in.target.Alive(id) {
			continue
		}
		if in.loc.Pos(id).Dist2(epi) > r2 {
			continue
		}
		repair := in.rng.UniformDuration(in.cfg.RepairMin, in.cfg.RepairMax)
		in.target.Fail(id)
		in.stats.Injected++
		in.stats.TotalDowntime += repair
		in.sched.AfterArg(repair, in.recoverFn, uint64(id))
		failed = append(failed, id)
	}
	in.stats.Bursts++
	if in.OnBurst != nil {
		in.OnBurst(epi, failed)
	}
	in.scheduleBurst()
}
