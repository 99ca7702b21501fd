package routing

// Parallel-vs-serial equality for the routing kernels: BuildGraphWorkers
// and ComputeWorkers must produce structures deeply equal to the serial
// path at every worker count, and a table computed in parallel must read
// the same routes and next hops — the routing half of the §10
// byte-identical determinism contract. GOMAXPROCS is raised so single-core
// machines still fork real workers.

import (
	"runtime"
	"testing"

	"repro/internal/packet"
)

func TestBuildGraphWorkersMatchesSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	f := gridField(t, 100, 8, 20)
	serial := BuildGraphWorkers(f, 1)
	for _, workers := range []int{2, 4, 7} {
		g := BuildGraphWorkers(gridField(t, 100, 8, 20), workers)
		if g.N() != serial.N() {
			t.Fatalf("workers=%d: N=%d, want %d", workers, g.N(), serial.N())
		}
		for i := 0; i < serial.N(); i++ {
			a, b := serial.Neighbors(packet.NodeID(i)), g.Neighbors(packet.NodeID(i))
			if len(a) != len(b) {
				t.Fatalf("workers=%d node %d: %d edges, want %d", workers, i, len(b), len(a))
			}
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("workers=%d node %d edge %d: %+v, want %+v", workers, i, k, b[k], a[k])
				}
			}
		}
	}
}

func TestComputeWorkersMatchesSerial(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	f := gridField(t, 100, 8, 20)
	g := BuildGraphWorkers(f, 1)
	const k = 3
	serial := ComputeWorkers(g, k, 1)
	for _, workers := range []int{2, 4, 7} {
		par := ComputeWorkers(g, k, workers)
		if par.Rounds() != serial.Rounds() || par.Broadcasts() != serial.Broadcasts() {
			t.Fatalf("workers=%d: rounds/broadcasts %d/%d, want %d/%d",
				workers, par.Rounds(), par.Broadcasts(), serial.Rounds(), serial.Broadcasts())
		}
		for s := 0; s < g.N(); s++ {
			for d := 0; d < g.N(); d++ {
				a := serial.Routes(packet.NodeID(s), packet.NodeID(d))
				b := par.Routes(packet.NodeID(s), packet.NodeID(d))
				if len(a) != len(b) {
					t.Fatalf("workers=%d %d->%d: %d routes, want %d", workers, s, d, len(b), len(a))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("workers=%d %d->%d route %d: %+v, want %+v", workers, s, d, i, b[i], a[i])
					}
				}
				hopA, okA := serial.NextHop(packet.NodeID(s), packet.NodeID(d))
				hopB, okB := par.NextHop(packet.NodeID(s), packet.NodeID(d))
				if hopA != hopB || okA != okB {
					t.Fatalf("workers=%d %d->%d: next hop %d (ok %v), want %d (ok %v)", workers, s, d, hopB, okB, hopA, okA)
				}
			}
		}
	}
}
