package experiment

import (
	"testing"
	"time"
)

// TestProtocolsDeliverSameSets runs SPMS and SPIN on an identical workload
// and verifies both satisfy exactly the expected interest set in a
// failure-free static field — the protocols differ in cost, never in
// outcome.
func TestProtocolsDeliverSameSets(t *testing.T) {
	for _, wl := range []WorkloadKind{AllToAll, Clustered} {
		name := "all-to-all"
		if wl == Clustered {
			name = "clustered"
		}
		t.Run(name, func(t *testing.T) {
			var expected int
			for _, p := range []Protocol{SPMS, SPIN, Flooding} {
				if wl == Clustered && p == Flooding {
					continue // flooding ignores interest; counts differ by design
				}
				res, err := RunWith(Scenario{
					Protocol:       p,
					Workload:       wl,
					Nodes:          36,
					ZoneRadius:     18,
					PacketsPerNode: 2,
					Seed:           5,
					Drain:          3 * time.Second,
				}, RunConfig{})
				if err != nil {
					t.Fatalf("%v: %v", p, err)
				}
				if expected == 0 {
					expected = res.Expected
				}
				if res.Expected != expected {
					t.Fatalf("%v expected-set size %d, others %d (workload not shared?)",
						p, res.Expected, expected)
				}
				if res.Deliveries != res.Expected {
					t.Fatalf("%v delivered %d/%d in a failure-free run", p, res.Deliveries, res.Expected)
				}
			}
		})
	}
}

// TestEnergyOrderingInvariant asserts the paper's global energy ordering on
// a common workload: SPMS < SPIN ≤ flooding (metadata negotiation saves
// energy; shortest-path multi-hop saves more).
func TestEnergyOrderingInvariant(t *testing.T) {
	results := map[Protocol]Result{}
	for _, p := range []Protocol{SPMS, SPIN, Flooding} {
		res, err := RunWith(Scenario{
			Protocol:       p,
			Workload:       AllToAll,
			Nodes:          49,
			ZoneRadius:     20,
			PacketsPerNode: 2,
			Seed:           9,
			Drain:          3 * time.Second,
		}, RunConfig{})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		results[p] = res
	}
	if !(results[SPMS].TotalEnergy < results[SPIN].TotalEnergy) {
		t.Fatalf("SPMS %v ≥ SPIN %v", results[SPMS].TotalEnergy, results[SPIN].TotalEnergy)
	}
	if !(results[SPIN].TotalEnergy <= results[Flooding].TotalEnergy) {
		t.Fatalf("SPIN %v > flooding %v", results[SPIN].TotalEnergy, results[Flooding].TotalEnergy)
	}
}

// TestSeedSweepStability runs the headline comparison across several seeds:
// the SPMS-beats-SPIN conclusion must not be a single-seed artifact.
func TestSeedSweepStability(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is slow")
	}
	for seed := int64(1); seed <= 5; seed++ {
		sc := Scenario{
			Protocol:       SPMS,
			Workload:       AllToAll,
			Nodes:          49,
			ZoneRadius:     20,
			PacketsPerNode: 2,
			Seed:           seed,
			Drain:          2 * time.Second,
		}
		spms, err := RunWith(sc, RunConfig{})
		if err != nil {
			t.Fatalf("seed %d SPMS: %v", seed, err)
		}
		sc.Protocol = SPIN
		spin, err := RunWith(sc, RunConfig{})
		if err != nil {
			t.Fatalf("seed %d SPIN: %v", seed, err)
		}
		if spms.EnergyPerPacket >= spin.EnergyPerPacket {
			t.Fatalf("seed %d: SPMS energy %v ≥ SPIN %v", seed, spms.EnergyPerPacket, spin.EnergyPerPacket)
		}
		if spms.MeanDelay >= spin.MeanDelay {
			t.Fatalf("seed %d: SPMS delay %v ≥ SPIN %v", seed, spms.MeanDelay, spin.MeanDelay)
		}
	}
}

// TestDuplicateEconomy: metadata negotiation exists to fight implosion, so
// SPMS/SPIN duplicate receptions must be far below flooding's on a dense
// field.
func TestDuplicateEconomy(t *testing.T) {
	dups := map[Protocol]uint64{}
	for _, p := range []Protocol{SPMS, SPIN, Flooding} {
		res, err := RunWith(Scenario{
			Protocol:       p,
			Workload:       AllToAll,
			Nodes:          25,
			ZoneRadius:     30,
			PacketsPerNode: 1,
			Seed:           3,
			Drain:          3 * time.Second,
		}, RunConfig{})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		dups[p] = res.Duplicates
	}
	if dups[SPIN] >= dups[Flooding] {
		t.Fatalf("SPIN duplicates %d ≥ flooding %d; negotiation not suppressing implosion",
			dups[SPIN], dups[Flooding])
	}
}
