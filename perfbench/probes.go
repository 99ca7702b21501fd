package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/experiment"
	"repro/internal/geom"
	"repro/internal/packet"
	"repro/internal/radio"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The probes time one layer directly, on inputs shaped like the
// workload's own, in the traced run only. Each is a root span with trace
// id "probe".

// buildField places sc's nodes the way the run does for the placements
// the workloads use. Grid placement is deterministic, so the field equals
// the run's; uniform placement draws from its own stream, so it only
// matches the run's field in size and density.
func buildField(sc experiment.Scenario) (*topo.Field, error) {
	model, err := radio.ScaledMICA2(sc.ZoneRadius)
	if err != nil {
		return nil, err
	}
	switch sc.Placement {
	case experiment.PlaceGrid:
		return topo.NewGridField(sc.Nodes, sc.GridSpacing, model)
	case experiment.PlaceUniform:
		side := float64(geom.GridSide(sc.Nodes)-1) * sc.GridSpacing
		return topo.NewUniformField(sc.Nodes, geom.Rect{Max: geom.Point{X: side, Y: side}}, model, sim.NewRNG(sc.Seed))
	default:
		return nil, fmt.Errorf("probe: placement %v not supported", sc.Placement)
	}
}

// probeTopo times Field.WarmAll(1) on a fresh field of sc's size and
// counts the neighbour-cache entries it built over every power level.
func probeTopo(tr *tracer, sc experiment.Scenario) (entries int, err error) {
	f, err := buildField(sc)
	if err != nil {
		return 0, err
	}
	id := tr.begin("probe.topo.warm", "probe", -1)
	f.WarmAll(1)
	tr.end(id)
	levels := f.Model().NumLevels()
	for n := 0; n < f.N(); n++ {
		for l := 1; l <= levels; l++ {
			entries += len(f.ReachedBy(packet.NodeID(n), radio.Level(l)))
		}
	}
	return entries, nil
}

// probeRouting times one initial route computation on a fresh field of
// sc's: the graph build and the DBF, each at one worker. It returns their
// sum, which the traced trials use to split mobility recomputes off the
// initial DBF.
func probeRouting(tr *tracer, sc experiment.Scenario) (time.Duration, error) {
	f, err := buildField(sc)
	if err != nil {
		return 0, err
	}
	g := tr.begin("probe.routing.graph", "probe", -1)
	graph := routing.BuildGraphWorkers(f, 1)
	tr.end(g)
	d := tr.begin("probe.routing.dbf", "probe", -1)
	routing.ComputeWorkers(graph, sc.RouteAlternatives, 1)
	tr.end(d)
	return tr.get(g).dur() + tr.get(d).dur(), nil
}

// probeCheckpoint replays the workload's own finished points through the
// durability layer in dir: scenario hashing, cache puts and gets, journal
// appends and atomic manifest writes, one of each per record.
func probeCheckpoint(tr *tracer, dir string, scenarios []experiment.Scenario, results [][]experiment.Result) error {
	recs := make([]checkpoint.Record, len(scenarios))
	id := tr.begin("probe.checkpoint.hash", "probe", -1)
	for i, sc := range scenarios {
		h, err := experiment.ScenarioHash(sc)
		if err != nil {
			return err
		}
		recs[i] = checkpoint.Record{Index: i, Hash: h, Results: results[i]}
	}
	tr.end(id)

	cache, err := checkpoint.OpenCache(filepath.Join(dir, "probe-cache"))
	if err != nil {
		return err
	}
	id = tr.begin("probe.checkpoint.cache_put", "probe", -1)
	for _, r := range recs {
		if err := cache.Put(r.Hash, r.Results); err != nil {
			return err
		}
	}
	tr.end(id)
	id = tr.begin("probe.checkpoint.cache_get", "probe", -1)
	for _, r := range recs {
		if _, hit, err := cache.Get(r.Hash); err != nil || !hit {
			return fmt.Errorf("probe: cache get %s: hit %v, err %v", r.Hash, hit, err)
		}
	}
	tr.end(id)

	journal, err := checkpoint.OpenJournal(filepath.Join(dir, "probe-journal"), false)
	if err != nil {
		return err
	}
	id = tr.begin("probe.checkpoint.journal_append", "probe", -1)
	for _, r := range recs {
		if err := journal.Append(r); err != nil {
			journal.Close()
			return err
		}
	}
	tr.end(id)
	if err := journal.Close(); err != nil {
		return err
	}

	manifests := filepath.Join(dir, "probe-manifests")
	if err := os.MkdirAll(manifests, 0o755); err != nil {
		return err
	}
	id = tr.begin("probe.checkpoint.manifest", "probe", -1)
	for i, r := range recs {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(filepath.Join(manifests, strconv.Itoa(i)+".json"), data); err != nil {
			return err
		}
	}
	tr.end(id)
	return nil
}
