package experiment

import "testing"

func TestReplicateSeed(t *testing.T) {
	if got := ReplicateSeed(42, 0); got != 42 {
		t.Fatalf("replicate 0 seed = %d, want the base seed 42", got)
	}
	// Derived seeds are deterministic and distinct across replicates and
	// across nearby base seeds (SplitMix64 mixing, not consecutive ints).
	seen := make(map[int64]bool)
	for base := int64(0); base < 8; base++ {
		for i := 0; i < 8; i++ {
			s := ReplicateSeed(base, i)
			if s != ReplicateSeed(base, i) {
				t.Fatal("ReplicateSeed is not deterministic")
			}
			if seen[s] {
				t.Fatalf("seed collision at base=%d i=%d: %d", base, i, s)
			}
			seen[s] = true
		}
	}
}

func TestReplicateScenario(t *testing.T) {
	sc := Scenario{Nodes: 49, Seed: 7, Replications: 4}
	r2 := Replicate(sc, 2)
	if r2.Seed != ReplicateSeed(7, 2) || r2.Replications != 0 || r2.Nodes != 49 {
		t.Fatalf("Replicate(sc, 2) = %+v", r2)
	}
	if n := Replications(sc); n != 4 {
		t.Fatalf("Replications = %d, want 4", n)
	}
	if n := Replications(Scenario{}); n != 1 {
		t.Fatalf("Replications of zero scenario = %d, want 1", n)
	}
	if n := Replications(Scenario{Replications: 1}); n != 1 {
		t.Fatalf("Replications of explicit 1 = %d, want 1", n)
	}
}
