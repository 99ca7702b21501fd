package experiment

import (
	"regexp"
	"testing"
	"time"

	"repro/internal/fault"
)

// hashScenario is a convenience wrapper failing the test on marshal errors.
func hashScenario(t *testing.T, sc Scenario) string {
	t.Helper()
	h, err := ScenarioHash(sc)
	if err != nil {
		t.Fatalf("ScenarioHash: %v", err)
	}
	return h
}

// TestScenarioHashShape pins the format: lowercase hex SHA-256.
func TestScenarioHashShape(t *testing.T) {
	h := hashScenario(t, Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 25, ZoneRadius: 20})
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(h) {
		t.Fatalf("hash %q is not 64 lowercase hex chars", h)
	}
}

// TestScenarioHashCanonicalization is the identity contract: a minimal
// scenario and its explicitly-defaulted form hash identically (the hash is
// over the defaulted wire form), and the 0/1 replication normalization
// collapses into one identity.
func TestScenarioHashCanonicalization(t *testing.T) {
	minimal := Scenario{Protocol: SPIN, Workload: AllToAll, Nodes: 49, ZoneRadius: 20, Seed: 7}
	if got, want := hashScenario(t, minimal), hashScenario(t, minimal.WithDefaults()); got != want {
		t.Fatalf("defaulting changed the hash: %s vs %s", got, want)
	}
	one := minimal
	one.Replications = 1
	if hashScenario(t, minimal) != hashScenario(t, one) {
		t.Fatal("replications:1 hashes differently from the single-trial form")
	}
}

// TestScenarioHashSensitivity checks every identity-bearing dimension
// moves the hash: parameters, seed, and the replication count (a 5-trial
// point is a different unit of work than a 1-trial point).
func TestScenarioHashSensitivity(t *testing.T) {
	base := Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 49, ZoneRadius: 20, Seed: 7}
	h0 := hashScenario(t, base)
	mutations := []struct {
		name string
		sc   Scenario
	}{
		{"protocol", Scenario{Protocol: SPIN, Workload: AllToAll, Nodes: 49, ZoneRadius: 20, Seed: 7}},
		{"nodes", Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 100, ZoneRadius: 20, Seed: 7}},
		{"seed", Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 49, ZoneRadius: 20, Seed: 8}},
		{"drain", Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 49, ZoneRadius: 20, Seed: 7, Drain: time.Second}},
		{"replications", Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 49, ZoneRadius: 20, Seed: 7, Replications: 5}},
	}
	seen := map[string]string{h0: "base"}
	for _, m := range mutations {
		h := hashScenario(t, m.sc)
		if prev, dup := seen[h]; dup {
			t.Errorf("mutation %q collides with %q: %s", m.name, prev, h)
		}
		seen[h] = m.name
	}
}

// TestScenarioHashStability pins concrete hash values: the canonical
// identity must never drift silently, because journals and caches written
// by older binaries key on it. If this test fails, every existing
// checkpoint directory and result cache is invalidated — change the wire
// form only with that cost in mind (and document it in DESIGN.md §13).
// The second scenario sets every enum and both nested configs, so a change
// to any of their encoders moves its digest.
func TestScenarioHashStability(t *testing.T) {
	sc := Scenario{Protocol: SPMS, Workload: AllToAll, Nodes: 25, ZoneRadius: 20, Seed: 1}
	data, err := CanonicalScenarioJSON(sc)
	if err != nil {
		t.Fatalf("CanonicalScenarioJSON: %v", err)
	}
	// The canonical JSON is the defaulted wire form; spot-check the frozen
	// properties the hash depends on (named enums, duration strings,
	// defaults filled in).
	for _, want := range []string{`"protocol":"spms"`, `"workload":"all-to-all"`, `"drain":"3s"`, `"routeAlternatives":2`} {
		if !regexp.MustCompile(regexp.QuoteMeta(want)).Match(data) {
			t.Errorf("canonical JSON lacks %s:\n%s", want, data)
		}
	}
	full := Scenario{
		Protocol: Flooding, Workload: Clustered, Nodes: 64, ZoneRadius: 15, Seed: 9,
		Placement: PlaceClustered, Mobility: true, MobilityModel: MobWaypoint,
		Failures: true, FailureCfg: fault.Config{Model: fault.Burst, MeanInterArrival: 40 * time.Millisecond},
		Replications: 3,
	}
	for _, c := range []struct {
		name string
		sc   Scenario
		want string
	}{
		{"minimal", sc, "b3b31e26536bf8054e5ffabda8e8e561901a667bc2f4ed6c3dfa9704af3fce92"},
		{"every-enum", full, "2fb96eeea7723e3c99501441263c9b47a8d96aad91e79580bcea33aca0e08d7c"},
	} {
		if got := hashScenario(t, c.sc); got != c.want {
			data, _ := CanonicalScenarioJSON(c.sc)
			t.Errorf("%s: hash %s, want %s; canonical JSON:\n%s", c.name, got, c.want, data)
		}
	}
}
