package experiment

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// validScenario is a minimal scenario that passes Validate.
func validScenario() Scenario {
	return Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 25, ZoneRadius: 15}
}

// TestScenarioValidate is the table-driven contract of Validate: zero
// values that WithDefaults fills are fine, explicit nonsense is rejected
// with an error naming the offending field.
func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string // "" means valid
	}{
		{"baseline", func(sc *Scenario) {}, ""},
		{"defaulted zeros", func(sc *Scenario) {
			sc.GridSpacing, sc.PacketsPerNode, sc.Drain = 0, 0, 0
		}, ""},
		{"clustered", func(sc *Scenario) { sc.Workload = Clustered; sc.ClusterInterestProb = 1 }, ""},
		{"unknown protocol", func(sc *Scenario) { sc.Protocol = 0 }, "unknown protocol"},
		{"protocol out of range", func(sc *Scenario) { sc.Protocol = Flooding + 1 }, "unknown protocol"},
		{"unknown workload", func(sc *Scenario) { sc.Workload = 0 }, "unknown workload"},
		{"zero nodes", func(sc *Scenario) { sc.Nodes = 0 }, "node count"},
		{"negative nodes", func(sc *Scenario) { sc.Nodes = -5 }, "node count"},
		// Validate builds nothing, so these never allocate a field.
		{"nodes above 32-bit ids", func(sc *Scenario) { sc.Nodes = math.MaxInt32; sc.Nodes++ }, "node count 2147483648 above"},
		{"nodes at 32-bit limit", func(sc *Scenario) { sc.Nodes = math.MaxInt32 }, ""},
		{"negative spacing", func(sc *Scenario) { sc.GridSpacing = -1 }, "grid spacing"},
		{"zero radius", func(sc *Scenario) { sc.ZoneRadius = 0 }, "zone radius"},
		{"negative radius", func(sc *Scenario) { sc.ZoneRadius = -3 }, "zone radius"},
		{"negative packets", func(sc *Scenario) { sc.PacketsPerNode = -1 }, "packets per node"},
		{"packets above 32-bit seqs", func(sc *Scenario) { sc.PacketsPerNode = math.MaxInt32; sc.PacketsPerNode++ },
			"packets per node 2147483648 above"},
		{"negative arrival", func(sc *Scenario) { sc.MeanArrival = -time.Millisecond }, "mean arrival"},
		{"interest prob below 0", func(sc *Scenario) { sc.ClusterInterestProb = -0.1 }, "outside [0,1]"},
		{"interest prob above 1", func(sc *Scenario) { sc.ClusterInterestProb = 1.5 }, "outside [0,1]"},
		{"bad failure config", func(sc *Scenario) {
			sc.Failures = true
			sc.FailureCfg = fault.Config{MeanInterArrival: -time.Millisecond}
		}, "inter-arrival"},
		{"failure config ignored when failures off", func(sc *Scenario) {
			sc.FailureCfg = fault.Config{MeanInterArrival: -time.Millisecond}
		}, ""},
		// A non-zero spmsConfig replaces core.DefaultConfig whole, so a
		// config that sets only a switch has no timeouts.
		{"partial spms config", func(sc *Scenario) {
			sc.SPMSConfig = core.Config{DisableRelayADV: true}
		}, "experiment: core: non-positive TOutADV 0s"},
		{"spms config ignored for spin", func(sc *Scenario) {
			sc.Protocol = SPIN
			sc.SPMSConfig = core.Config{DisableRelayADV: true}
		}, ""},
		{"negative mobility period", func(sc *Scenario) { sc.MobilityPeriod = -time.Second }, "mobility period"},
		{"mobility fraction below 0", func(sc *Scenario) { sc.MobilityFraction = -0.01 }, "mobility fraction"},
		{"mobility fraction above 1", func(sc *Scenario) { sc.MobilityFraction = 2 }, "mobility fraction"},
		{"negative route alternatives", func(sc *Scenario) { sc.RouteAlternatives = -1 }, "route alternatives"},
		{"negative drain", func(sc *Scenario) { sc.Drain = -time.Second }, "negative drain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validScenario()
			tc.mutate(&sc)
			err := sc.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted %+v, want error containing %q", sc, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsInvalid checks Run surfaces the tightened validation, not
// a downstream panic.
func TestRunRejectsInvalid(t *testing.T) {
	sc := validScenario()
	sc.PacketsPerNode = -2
	if _, err := RunWith(sc, RunConfig{}); err == nil || !strings.Contains(err.Error(), "packets per node") {
		t.Fatalf("Run(negative packets) = %v, want validation error", err)
	}
}

// TestWithDefaultsIdempotent checks applying defaults twice is a no-op, so
// campaign expansion can pre-apply them without changing what Run sees.
func TestWithDefaultsIdempotent(t *testing.T) {
	sc := validScenario()
	sc.Mobility = true
	once := sc.WithDefaults()
	twice := once.WithDefaults()
	if once != twice {
		t.Fatalf("WithDefaults not idempotent:\nonce:  %+v\ntwice: %+v", once, twice)
	}
}
