package enum_test

import (
	"encoding"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/fault"
)

// wireEnum is an enum served by a table: T writes its name, *T reads it.
type wireEnum[T any] interface {
	*T
	encoding.TextUnmarshaler
	json.Unmarshaler
}

// tableCase is one enum's expected codec behavior.
type tableCase[T interface {
	~int
	encoding.TextMarshaler
}] struct {
	names      map[T]string // every value's written name
	aliases    map[string]T // the other accepted spellings
	unknownErr string       // the error for the name "nope"
	unnamed    T            // a value with no name
	marshalErr string       // the error marshaling it
}

// check runs the codec of one enum: every spelling, in upper case and
// padded with space, parses back to its value as text and as a JSON
// string; the numeric JSON form round-trips through the written name;
// null decodes to the zero value; and the unknown name and the unnamed
// value fail with their exact texts.
func check[T interface {
	~int
	encoding.TextMarshaler
}, P wireEnum[T]](t *testing.T, c tableCase[T]) {
	t.Helper()
	spellings := map[string]T{}
	for v, name := range c.names {
		b, err := v.MarshalText()
		if err != nil || string(b) != name {
			t.Errorf("MarshalText(%d) = %q, %v; want %q", int(v), b, err, name)
		}
		spellings[name] = v
	}
	for name, v := range c.aliases {
		spellings[name] = v
	}
	for name, want := range spellings {
		for _, s := range []string{name, strings.ToUpper(name), " " + name + "\t"} {
			var got T
			if err := P(&got).UnmarshalText([]byte(s)); err != nil || got != want {
				t.Errorf("UnmarshalText(%q) = %d, %v; want %d", s, int(got), err, int(want))
			}
			got = 0
			if err := json.Unmarshal([]byte(strconv.Quote(s)), P(&got)); err != nil || got != want {
				t.Errorf("JSON %q = %d, %v; want %d", s, int(got), err, int(want))
			}
		}
	}
	for v, name := range c.names {
		var got T
		if err := json.Unmarshal([]byte(strconv.Itoa(int(v))), P(&got)); err != nil || got != v {
			t.Errorf("JSON %d = %d, %v", int(v), int(got), err)
		}
		b, err := json.Marshal(got)
		if err != nil || string(b) != strconv.Quote(name) {
			t.Errorf("json.Marshal(%d) = %s, %v; want %q", int(v), b, err, name)
		}
	}
	got := c.unnamed
	if err := json.Unmarshal([]byte("null"), P(&got)); err != nil || got != 0 {
		t.Errorf("JSON null = %d, %v; want 0", int(got), err)
	}
	if err := P(&got).UnmarshalText([]byte("nope")); err == nil || err.Error() != c.unknownErr {
		t.Errorf("UnmarshalText(nope) error = %v\nwant %s", err, c.unknownErr)
	}
	if _, err := c.unnamed.MarshalText(); err == nil || err.Error() != c.marshalErr {
		t.Errorf("MarshalText(%d) error = %v\nwant %s", int(c.unnamed), err, c.marshalErr)
	}
}

func TestTables(t *testing.T) {
	t.Run("protocol", func(t *testing.T) {
		check(t, tableCase[experiment.Protocol]{
			names:      map[experiment.Protocol]string{experiment.SPMS: "spms", experiment.SPIN: "spin", experiment.Flooding: "flood"},
			aliases:    map[string]experiment.Protocol{"flooding": experiment.Flooding},
			unknownErr: `experiment: unknown protocol "nope" (want spms | spin | flood)`,
			unnamed:    7,
			marshalErr: "experiment: cannot marshal unknown protocol 7",
		})
	})
	t.Run("workload", func(t *testing.T) {
		check(t, tableCase[experiment.WorkloadKind]{
			names:      map[experiment.WorkloadKind]string{experiment.AllToAll: "all-to-all", experiment.Clustered: "clustered"},
			aliases:    map[string]experiment.WorkloadKind{"alltoall": experiment.AllToAll, "cluster": experiment.Clustered},
			unknownErr: `experiment: unknown workload "nope" (want all-to-all | cluster)`,
			unnamed:    9,
			marshalErr: "experiment: cannot marshal unknown workload 9",
		})
	})
	t.Run("placement", func(t *testing.T) {
		check(t, tableCase[experiment.PlacementKind]{
			names: map[experiment.PlacementKind]string{
				experiment.PlaceGrid: "grid", experiment.PlaceUniform: "uniform",
				experiment.PlaceChain: "chain", experiment.PlaceClustered: "clustered",
			},
			aliases:    map[string]experiment.PlacementKind{"cluster": experiment.PlaceClustered},
			unknownErr: `experiment: unknown placement "nope" (want grid | uniform | chain | clustered)`,
			unnamed:    9,
			marshalErr: "experiment: cannot marshal unknown placement 9",
		})
	})
	t.Run("mobility model", func(t *testing.T) {
		check(t, tableCase[experiment.MobilityKind]{
			names:      map[experiment.MobilityKind]string{experiment.MobRelocate: "relocate", experiment.MobWaypoint: "waypoint"},
			aliases:    map[string]experiment.MobilityKind{"relocation": experiment.MobRelocate, "random-waypoint": experiment.MobWaypoint},
			unknownErr: `experiment: unknown mobility model "nope" (want relocate | waypoint)`,
			unnamed:    5,
			marshalErr: "experiment: cannot marshal unknown mobility model 5",
		})
	})
	t.Run("failure model", func(t *testing.T) {
		check(t, tableCase[fault.Model]{
			names:      map[fault.Model]string{fault.Transient: "transient", fault.Crash: "crash", fault.Burst: "burst"},
			unknownErr: `fault: unknown failure model "nope" (want transient | crash | burst)`,
			unnamed:    7,
			marshalErr: "fault: cannot marshal unknown failure model 7",
		})
	})
}

// TestWireStrings checks the wire-named enums' String: the written name,
// or the Go form for a value with none, which campaign labels show.
func TestWireStrings(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{experiment.Clustered.String(), "clustered"},
		{experiment.WorkloadKind(9).String(), "WorkloadKind(9)"},
		{experiment.PlaceChain.String(), "chain"},
		{experiment.PlacementKind(9).String(), "PlacementKind(9)"},
		{experiment.MobWaypoint.String(), "waypoint"},
		{experiment.MobilityKind(5).String(), "MobilityKind(5)"},
		{fault.Burst.String(), "burst"},
		{fault.Model(7).String(), "Model(7)"},
	} {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}
