package experiment

import (
	"testing"
	"time"
)

// runPair executes a scenario under both SPMS and SPIN as a two-point
// sweep.
func runPair(sc Scenario) (spms, spin Result, err error) {
	spmsSc, spinSc := sc, sc
	spmsSc.Protocol, spinSc.Protocol = SPMS, SPIN
	res, err := (Sweep{Points: []Scenario{spmsSc, spinSc}}).Execute()
	if err != nil {
		return Result{}, Result{}, err
	}
	return res[0], res[1], nil
}

// quickScenario is a small but non-trivial all-to-all configuration used
// throughout these tests: 49 nodes, 20 m zones, 2 packets per node.
func quickScenario(p Protocol) Scenario {
	return Scenario{
		Protocol:       p,
		Workload:       AllToAll,
		Nodes:          49,
		ZoneRadius:     20,
		PacketsPerNode: 2,
		Seed:           1,
		Drain:          2 * time.Second,
	}
}

func TestRunValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"unknown protocol", func(s *Scenario) { s.Protocol = 0 }},
		{"unknown workload", func(s *Scenario) { s.Workload = 99 }},
		{"zero nodes", func(s *Scenario) { s.Nodes = 0 }},
		{"zero radius", func(s *Scenario) { s.ZoneRadius = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := quickScenario(SPMS)
			tt.mutate(&sc)
			if _, err := RunWith(sc, RunConfig{}); err == nil {
				t.Fatal("invalid scenario accepted")
			}
		})
	}
}

func TestRunCompletesAllProtocols(t *testing.T) {
	for _, p := range []Protocol{SPMS, SPIN, Flooding} {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			res, err := RunWith(quickScenario(p), RunConfig{})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Items != 98 {
				t.Fatalf("Items=%d, want 98", res.Items)
			}
			if res.DeliveryRate < 0.99 {
				t.Fatalf("%v delivery rate %v, want ≈1 in failure-free static run", p, res.DeliveryRate)
			}
			if res.TotalEnergy <= 0 || res.EnergyPerPacket <= 0 {
				t.Fatalf("%v recorded no energy", p)
			}
			if res.MeanDelay <= 0 {
				t.Fatalf("%v recorded no delay", p)
			}
		})
	}
}

func TestSPMSBeatsSPINOnEnergyAndDelay(t *testing.T) {
	// The headline result (Figures 6 and 8): static failure-free all-to-all
	// has SPMS below SPIN on both energy per packet and mean delay.
	spms, spin, err := runPair(quickScenario(SPMS))
	if err != nil {
		t.Fatalf("runPair: %v", err)
	}
	if spms.EnergyPerPacket >= spin.EnergyPerPacket {
		t.Fatalf("SPMS energy %v ≥ SPIN %v", spms.EnergyPerPacket, spin.EnergyPerPacket)
	}
	if spms.MeanDelay >= spin.MeanDelay {
		t.Fatalf("SPMS delay %v ≥ SPIN %v", spms.MeanDelay, spin.MeanDelay)
	}
}

func TestFloodingCostsMostEnergy(t *testing.T) {
	flood, err := RunWith(quickScenario(Flooding), RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	spin, err := RunWith(quickScenario(SPIN), RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if flood.EnergyPerPacket <= spin.EnergyPerPacket {
		t.Fatalf("flooding energy %v ≤ SPIN %v; negotiation should save energy",
			flood.EnergyPerPacket, spin.EnergyPerPacket)
	}
}

func TestFailuresIncreaseDelay(t *testing.T) {
	base := quickScenario(SPMS)
	free, err := RunWith(base, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	base.Failures = true
	// Per-node failure clocks at Table 1 rates put every node down ≈1/6 of
	// the time, so failures are guaranteed to land inside the active
	// dissemination window.
	failing, err := RunWith(base, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if failing.FailuresInjected == 0 {
		t.Fatal("failure scenario injected nothing")
	}
	if failing.MeanDelay <= free.MeanDelay {
		t.Fatalf("failure delay %v ≤ failure-free %v", failing.MeanDelay, free.MeanDelay)
	}
	// Failovers should actually fire under failures.
	if failing.Failovers == 0 {
		t.Fatal("no failovers under injected failures")
	}
	// Most traffic still gets through (transient failures, short MTTR).
	// With every node down ≈1/6 of the time, some acquisitions legitimately
	// exhaust their providers; ≈90% delivery is the expected regime.
	if failing.DeliveryRate < 0.8 {
		t.Fatalf("delivery rate %v under failures, want ≥0.8", failing.DeliveryRate)
	}
}

func TestMobilityChargesControlEnergy(t *testing.T) {
	sc := quickScenario(SPMS)
	sc.Mobility = true
	res, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.MobilityEvents == 0 {
		t.Fatal("no mobility events fired")
	}
	if res.CtrlEnergy <= 0 {
		t.Fatal("mobility run charged no control energy")
	}
	// SPIN pays no routing cost under mobility.
	sc.Protocol = SPIN
	spinRes, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if spinRes.CtrlEnergy != 0 {
		t.Fatalf("SPIN charged %v control energy", spinRes.CtrlEnergy)
	}
}

func TestMobilityNarrowsEnergyGap(t *testing.T) {
	// §5.1.3: mobility costs SPMS re-convergence energy, shrinking (but not
	// eliminating) its advantage — provided enough packets flow between
	// mobility events ("at least 239.18 packets must be successfully
	// transmitted between two instances of network mobility for SPMS to
	// save energy"). Run above that regime: a full workload with a single
	// mobility event.
	static := quickScenario(SPMS)
	static.PacketsPerNode = 10
	spmsStatic, spinStatic, err := runPair(static)
	if err != nil {
		t.Fatalf("runPair: %v", err)
	}
	mobile := static
	mobile.Mobility = true
	mobile.MobilityPeriod = 400 * time.Millisecond
	spmsMobile, spinMobile, err := runPair(mobile)
	if err != nil {
		t.Fatalf("runPair: %v", err)
	}
	gapStatic := spinStatic.EnergyPerPacket / spmsStatic.EnergyPerPacket
	gapMobile := spinMobile.EnergyPerPacket / spmsMobile.EnergyPerPacket
	if gapMobile >= gapStatic {
		t.Fatalf("mobility did not narrow the energy gap: static %v, mobile %v", gapStatic, gapMobile)
	}
	if gapMobile <= 1 {
		t.Fatalf("SPMS lost its advantage entirely under mobility: gap %v", gapMobile)
	}
}

func TestMobilityBelowBreakEvenFavorsSPIN(t *testing.T) {
	// The flip side of §5.1.3: with too few packets between mobility
	// events, the re-convergence energy swamps SPMS's per-packet gain and
	// SPIN wins — the existence of the 239.18-packet threshold depends on
	// this regime being real.
	sc := quickScenario(SPMS)
	sc.PacketsPerNode = 1 // 49 items across ~5 mobility events
	sc.Mobility = true
	sc.MobilityPeriod = 50 * time.Millisecond
	spms, spin, err := runPair(sc)
	if err != nil {
		t.Fatalf("runPair: %v", err)
	}
	if spms.EnergyPerPacket <= spin.EnergyPerPacket {
		t.Fatalf("below break-even SPMS (%v) should cost more than SPIN (%v)",
			spms.EnergyPerPacket, spin.EnergyPerPacket)
	}
}

func TestClusteredWorkloadRuns(t *testing.T) {
	sc := quickScenario(SPMS)
	sc.Workload = Clustered
	res, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Expected == 0 {
		t.Fatal("clustered workload expected no deliveries")
	}
	if res.DeliveryRate < 0.99 {
		t.Fatalf("clustered delivery rate %v, want ≈1", res.DeliveryRate)
	}
	// Clustered interest is sparse: expected deliveries far below
	// all-to-all's items × (n-1).
	if res.Expected >= res.Items*(sc.Nodes-1) {
		t.Fatal("clustered interest not sparse")
	}
}

func TestRunDeterminism(t *testing.T) {
	a, err := RunWith(quickScenario(SPMS), RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := RunWith(quickScenario(SPMS), RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a != b {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	c := quickScenario(SPMS)
	c.Seed = 2
	other, err := RunWith(c, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.MeanDelay == other.MeanDelay && a.TotalEnergy == other.TotalEnergy {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestChargeInitialDBF(t *testing.T) {
	sc := quickScenario(SPMS)
	without, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sc.ChargeInitialDBF = true
	with, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if with.CtrlEnergy <= without.CtrlEnergy {
		t.Fatal("initial DBF charge had no effect")
	}
	if with.TotalEnergy <= without.TotalEnergy {
		t.Fatal("total energy should include the DBF charge")
	}
}

func TestRouteAlternativesAblation(t *testing.T) {
	// k=1 (no secondary routes) must still deliver in the failure-free
	// case; the scenario knob exists for the ablation bench.
	sc := quickScenario(SPMS)
	sc.RouteAlternatives = 1
	res, err := RunWith(sc, RunConfig{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.DeliveryRate < 0.99 {
		t.Fatalf("k=1 delivery rate %v", res.DeliveryRate)
	}
}

func TestProtocolString(t *testing.T) {
	tests := []struct {
		p    Protocol
		want string
	}{
		{SPMS, "SPMS"}, {SPIN, "SPIN"}, {Flooding, "FLOOD"}, {Protocol(9), "Protocol(9)"},
	}
	for _, tt := range tests {
		if got := tt.p.String(); got != tt.want {
			t.Fatalf("String(%d)=%q, want %q", int(tt.p), got, tt.want)
		}
	}
}
