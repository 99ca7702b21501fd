// replicate.go is the multi-seed replication engine: it turns one
// Scenario with Replications = N into N independent trials whose seeds
// are derived deterministically from the base seed, and runs them as
// plain work units through the Sweep pool — replicates parallelize
// exactly like points, and the per-point replicate vectors are
// byte-identical at every pool size (DESIGN.md §2).
package experiment

// ReplicateSeed returns the seed of replicate i (0-based) of a scenario
// whose base seed is base. Replicate 0 runs the base seed itself, so a
// single replication reproduces the unreplicated run bit for bit;
// replicates i > 0 use a SplitMix64-mixed seed, which decorrelates the
// math/rand streams far better than consecutive integers while staying a
// pure function of (base, i).
func ReplicateSeed(base int64, i int) int64 {
	if i <= 0 {
		return base
	}
	x := uint64(base) + uint64(i)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Replications returns the trial count a scenario stands for: at least 1.
func Replications(sc Scenario) int {
	if sc.Replications > 1 {
		return sc.Replications
	}
	return 1
}

// Replicate returns trial i of the scenario: the same parameters with the
// derived seed and Replications cleared — a replicate is itself a single
// run, and clearing keeps its JSON form free of replication metadata.
func Replicate(sc Scenario, i int) Scenario {
	sc.Seed = ReplicateSeed(sc.Seed, i)
	sc.Replications = 0
	return sc
}

// ReplicatedSweep executes every point's replicates as independent units
// through the Sweep worker pool and reassembles them per point: the
// result of point i is its replicate vector, in replicate order.
type ReplicatedSweep struct {
	// Points are the scenarios to run; each expands to Replications(sc)
	// trials. Order is the result order.
	Points []Scenario

	// Run executes one trial. Nil means RunWith with the zero RunConfig.
	// It must be safe to call concurrently.
	Run func(Scenario) (Result, error)

	// Workers bounds the pool, as in Sweep.
	Workers int

	// OnPoint, when non-nil, is invoked once per point as soon as its last
	// replicate completes, with the point's index, its (unexpanded)
	// scenario, and the full replicate vector. Calls are serialized but may
	// arrive out of point order when Workers > 1; a non-nil return aborts
	// the sweep with Sweep.OnPoint's abort semantics.
	OnPoint func(index int, sc Scenario, reps []Result) error

	// OnStart, when non-nil, is invoked as a worker claims a trial of the
	// given point — once per replicate, so a replicated point reports a
	// start per trial. Sweep.OnStart's concurrency caveats apply: calls
	// are concurrent and must be cheap and safe.
	OnStart func(point int)

	// Cancel, when non-nil, requests a graceful stop when closed, with
	// Sweep.Cancel's drain semantics. Because the unit of work is a trial,
	// a cancelled sweep may finish some replicates of a point but not all;
	// only fully-replicated points reach OnPoint.
	Cancel <-chan struct{}
}

// Execute runs every trial through the pool and returns the per-point
// replicate vectors in point order. Trial failures surface with Sweep's
// lowest-failing-unit error contract.
func (s ReplicatedSweep) Execute() ([][]Result, error) {
	total := 0
	for _, p := range s.Points {
		total += Replications(p)
	}
	trials := make([]Scenario, 0, total)
	// refs[t] locates trial t: point index and replicate index.
	type trialRef struct{ point, rep int }
	refs := make([]trialRef, 0, total)
	out := make([][]Result, len(s.Points))
	remaining := make([]int, len(s.Points))
	for i, p := range s.Points {
		n := Replications(p)
		out[i] = make([]Result, n)
		remaining[i] = n
		for r := 0; r < n; r++ {
			trials = append(trials, Replicate(p, r))
			refs = append(refs, trialRef{i, r})
		}
	}

	// Sweep serializes OnPoint invocations, so the reassembly state below
	// needs no lock; wg.Wait in Execute orders the final reads after every
	// callback write.
	var onStart func(int)
	if s.OnStart != nil {
		//repolint:allow hooknil the closure is only constructed under this guard, and s is a value copy so the field cannot change afterward
		onStart = func(t int) { s.OnStart(refs[t].point) }
	}
	inner := Sweep{
		Points:  trials,
		Run:     s.Run,
		Workers: s.Workers,
		OnStart: onStart,
		Cancel:  s.Cancel,
		OnPoint: func(t int, _ Scenario, res Result) error {
			ref := refs[t]
			out[ref.point][ref.rep] = res
			remaining[ref.point]--
			if remaining[ref.point] == 0 && s.OnPoint != nil {
				return s.OnPoint(ref.point, s.Points[ref.point], out[ref.point])
			}
			return nil
		},
	}
	if _, err := inner.Execute(); err != nil {
		return nil, err
	}
	return out, nil
}
