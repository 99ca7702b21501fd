// replicate.go derives a replicated scenario's trials: a Scenario with
// Replications = N stands for N independent trials whose seeds are
// derived deterministically from the base seed. These are pure functions
// of one Scenario; the campaign trial pool runs the trials as plain work
// units, so the per-point replicate vectors are byte-identical at every
// pool size (DESIGN.md §2).
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
