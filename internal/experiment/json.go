// json.go is the wire codec behind Scenario's JSON form — the format of
// campaign spec files (internal/campaign), `spmsim -scenario`, and result
// sink tagging. Protocols and workloads serialize as their names, and
// every duration accepts either a Go duration string ("2.5ms") or integer
// nanoseconds, marshaling back as the string form. The encoders are
// encoding.TextMarshalers, so encoding/json writes each name or duration
// straight into its output as a string. The enums' names live in one
// table each (internal/enum), which their text and JSON decoders read;
// UnmarshalJSON also accepts the numeric form. Decoding is strict:
// unknown fields are rejected so a typoed spec fails instead of silently
// simulating the default.
package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/enum"
	"repro/internal/fault"
)

// The enums' wire names. Each value's first spelling is the one it is
// written as; the others are accepted aliases.
var (
	protocols = enum.New("experiment", "protocol", "spms | spin | flood", map[Protocol][]string{
		SPMS:     {"spms"},
		SPIN:     {"spin"},
		Flooding: {"flood", "flooding"},
	})
	workloads = enum.New("experiment", "workload", "all-to-all | cluster", map[WorkloadKind][]string{
		AllToAll:  {"all-to-all", "alltoall"},
		Clustered: {"clustered", "cluster"},
	})
	placements = enum.New("experiment", "placement", "grid | uniform | chain | clustered", map[PlacementKind][]string{
		PlaceGrid:      {"grid"},
		PlaceUniform:   {"uniform"},
		PlaceChain:     {"chain"},
		PlaceClustered: {"clustered", "cluster"},
	})
	mobilityModels = enum.New("experiment", "mobility model", "relocate | waypoint", map[MobilityKind][]string{
		MobRelocate: {"relocate", "relocation"},
		MobWaypoint: {"waypoint", "random-waypoint"},
	})
)

// MarshalText writes the protocol name ("spms", "spin", "flood").
func (p Protocol) MarshalText() ([]byte, error) { return protocols.Marshal(p) }

// UnmarshalText reads a protocol name in any case.
func (p *Protocol) UnmarshalText(text []byte) error { return protocols.Unmarshal(text, p) }

// UnmarshalJSON accepts a protocol name or its numeric value.
func (p *Protocol) UnmarshalJSON(data []byte) error { return protocols.DecodeJSON(data, p) }

// String names the workload as spec files and flags do.
func (w WorkloadKind) String() string { return workloads.String(w) }

// MarshalText writes the workload name ("all-to-all", "clustered").
func (w WorkloadKind) MarshalText() ([]byte, error) { return workloads.Marshal(w) }

// UnmarshalText reads a workload name in any case.
func (w *WorkloadKind) UnmarshalText(text []byte) error { return workloads.Unmarshal(text, w) }

// UnmarshalJSON accepts a workload name or its numeric value.
func (w *WorkloadKind) UnmarshalJSON(data []byte) error { return workloads.DecodeJSON(data, w) }

// String names the placement as spec files and flags do.
func (p PlacementKind) String() string { return placements.String(p) }

// MarshalText writes the placement name ("grid", "uniform", "chain",
// "clustered").
func (p PlacementKind) MarshalText() ([]byte, error) { return placements.Marshal(p) }

// UnmarshalText reads a placement name in any case.
func (p *PlacementKind) UnmarshalText(text []byte) error { return placements.Unmarshal(text, p) }

// UnmarshalJSON accepts a placement name or its numeric value.
func (p *PlacementKind) UnmarshalJSON(data []byte) error { return placements.DecodeJSON(data, p) }

// String names the mobility model as spec files and flags do.
func (m MobilityKind) String() string { return mobilityModels.String(m) }

// MarshalText writes the mobility-model name ("relocate", "waypoint").
func (m MobilityKind) MarshalText() ([]byte, error) { return mobilityModels.Marshal(m) }

// UnmarshalText reads a mobility-model name in any case.
func (m *MobilityKind) UnmarshalText(text []byte) error { return mobilityModels.Unmarshal(text, m) }

// UnmarshalJSON accepts a mobility-model name or its numeric value.
func (m *MobilityKind) UnmarshalJSON(data []byte) error { return mobilityModels.DecodeJSON(data, m) }

// FlexDuration marshals as a Go duration string and unmarshals from
// either a duration string or integer nanoseconds. Exported so other
// spec layers (internal/campaign's duration axes) share the one codec
// instead of drifting copies.
type FlexDuration time.Duration

// MarshalText writes the Go duration string ("2.5ms").
func (d FlexDuration) MarshalText() ([]byte, error) {
	return []byte(time.Duration(d).String()), nil
}

func (d *FlexDuration) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("experiment: bad duration %q: %w", s, err)
		}
		*d = FlexDuration(v)
		return nil
	}
	var n int64
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("experiment: duration must be a string like \"2.5ms\" or integer nanoseconds: %w", err)
	}
	*d = FlexDuration(n)
	return nil
}

// faultConfigJSON is fault.Config's wire form (named model, duration
// strings). The model and burst-radius fields omit their zero values, so a
// pre-registry transient config serializes byte-identically to before.
type faultConfigJSON struct {
	Model            fault.Model  `json:"model,omitempty"`
	MeanInterArrival FlexDuration `json:"meanInterArrival,omitempty"`
	RepairMin        FlexDuration `json:"repairMin,omitempty"`
	RepairMax        FlexDuration `json:"repairMax,omitempty"`
	BurstRadius      float64      `json:"burstRadius,omitempty"`
}

func (j faultConfigJSON) config() fault.Config {
	return fault.Config{
		Model:            j.Model,
		MeanInterArrival: time.Duration(j.MeanInterArrival),
		RepairMin:        time.Duration(j.RepairMin),
		RepairMax:        time.Duration(j.RepairMax),
		BurstRadius:      j.BurstRadius,
	}
}

// coreConfigJSON is core.Config's wire form (duration strings).
type coreConfigJSON struct {
	TOutADV         FlexDuration `json:"tOutADV,omitempty"`
	TOutDAT         FlexDuration `json:"tOutDAT,omitempty"`
	Proc            FlexDuration `json:"proc,omitempty"`
	AutoTimeouts    bool         `json:"autoTimeouts,omitempty"`
	MaxAttempts     int          `json:"maxAttempts,omitempty"`
	ServeFromCache  bool         `json:"serveFromCache,omitempty"`
	DisableRelayADV bool         `json:"disableRelayADV,omitempty"`
	QueryHorizon    int          `json:"queryHorizon,omitempty"`
	BorderFanout    int          `json:"borderFanout,omitempty"`
}

func (j coreConfigJSON) config() core.Config {
	return core.Config{
		TOutADV:         time.Duration(j.TOutADV),
		TOutDAT:         time.Duration(j.TOutDAT),
		Proc:            time.Duration(j.Proc),
		AutoTimeouts:    j.AutoTimeouts,
		MaxAttempts:     j.MaxAttempts,
		ServeFromCache:  j.ServeFromCache,
		DisableRelayADV: j.DisableRelayADV,
		QueryHorizon:    j.QueryHorizon,
		BorderFanout:    j.BorderFanout,
	}
}

// The Marshal/Unmarshal pair below overlays Scenario's duration and
// nested-config fields with their wire forms. The overlay fields are
// declared directly on the auxiliary struct (depth 0) so they win the
// JSON name conflict against the embedded alias's fields (depth 1);
// embedding them through a named shadow struct would tie the depths and
// make encoding/json drop the colliding names entirely.

// MarshalJSON renders the scenario with named protocols/workloads and
// duration strings; zero-valued nested configs are omitted.
func (s Scenario) MarshalJSON() ([]byte, error) {
	type alias Scenario
	aux := struct {
		MeanArrival      FlexDuration     `json:"meanArrival,omitempty"`
		MobilityPeriod   FlexDuration     `json:"mobilityPeriod,omitempty"`
		WaypointPauseMin FlexDuration     `json:"waypointPauseMin,omitempty"`
		WaypointPauseMax FlexDuration     `json:"waypointPauseMax,omitempty"`
		Drain            FlexDuration     `json:"drain,omitempty"`
		FailureCfg       *faultConfigJSON `json:"failureConfig,omitempty"`
		SPMSConfig       *coreConfigJSON  `json:"spmsConfig,omitempty"`
		Replications     int              `json:"replications,omitempty"`
		*alias
	}{
		MeanArrival:      FlexDuration(s.MeanArrival),
		MobilityPeriod:   FlexDuration(s.MobilityPeriod),
		WaypointPauseMin: FlexDuration(s.WaypointPauseMin),
		WaypointPauseMax: FlexDuration(s.WaypointPauseMax),
		Drain:            FlexDuration(s.Drain),
		alias:            (*alias)(&s),
	}
	// 0 and 1 both mean "single trial"; normalize to the omitted form so
	// an explicit replications:1 spec serializes byte-identically to one
	// that never mentions replication.
	if s.Replications > 1 {
		aux.Replications = s.Replications
	}
	if s.FailureCfg != (fault.Config{}) {
		aux.FailureCfg = &faultConfigJSON{
			Model:            s.FailureCfg.Model,
			MeanInterArrival: FlexDuration(s.FailureCfg.MeanInterArrival),
			RepairMin:        FlexDuration(s.FailureCfg.RepairMin),
			RepairMax:        FlexDuration(s.FailureCfg.RepairMax),
			BurstRadius:      s.FailureCfg.BurstRadius,
		}
	}
	if s.SPMSConfig != (core.Config{}) {
		c := s.SPMSConfig
		aux.SPMSConfig = &coreConfigJSON{
			TOutADV:         FlexDuration(c.TOutADV),
			TOutDAT:         FlexDuration(c.TOutDAT),
			Proc:            FlexDuration(c.Proc),
			AutoTimeouts:    c.AutoTimeouts,
			MaxAttempts:     c.MaxAttempts,
			ServeFromCache:  c.ServeFromCache,
			DisableRelayADV: c.DisableRelayADV,
			QueryHorizon:    c.QueryHorizon,
			BorderFanout:    c.BorderFanout,
		}
	}
	return json.Marshal(&aux)
}

// UnmarshalJSON decodes the wire form, rejecting unknown fields.
func (s *Scenario) UnmarshalJSON(data []byte) error {
	type alias Scenario
	aux := struct {
		MeanArrival      FlexDuration     `json:"meanArrival,omitempty"`
		MobilityPeriod   FlexDuration     `json:"mobilityPeriod,omitempty"`
		WaypointPauseMin FlexDuration     `json:"waypointPauseMin,omitempty"`
		WaypointPauseMax FlexDuration     `json:"waypointPauseMax,omitempty"`
		Drain            FlexDuration     `json:"drain,omitempty"`
		FailureCfg       *faultConfigJSON `json:"failureConfig,omitempty"`
		SPMSConfig       *coreConfigJSON  `json:"spmsConfig,omitempty"`
		*alias
	}{alias: (*alias)(s)}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&aux); err != nil {
		return fmt.Errorf("experiment: bad scenario: %w", err)
	}
	s.MeanArrival = time.Duration(aux.MeanArrival)
	s.MobilityPeriod = time.Duration(aux.MobilityPeriod)
	s.WaypointPauseMin = time.Duration(aux.WaypointPauseMin)
	s.WaypointPauseMax = time.Duration(aux.WaypointPauseMax)
	s.Drain = time.Duration(aux.Drain)
	if aux.FailureCfg != nil {
		s.FailureCfg = aux.FailureCfg.config()
	}
	if aux.SPMSConfig != nil {
		s.SPMSConfig = aux.SPMSConfig.config()
	}
	return nil
}
