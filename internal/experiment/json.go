// json.go is the wire codec behind Scenario's JSON form — the format of
// campaign spec files (internal/campaign), `spmsim -scenario`, and result
// sink tagging. Protocols and workloads serialize as their names, and
// every duration accepts either a Go duration string ("2.5ms") or integer
// nanoseconds, marshaling back as the string form. The encoders are
// encoding.TextMarshalers, so encoding/json writes each name or duration
// straight into its output as a string; the decoders are UnmarshalJSON
// methods, which also accept the numeric forms. Decoding is strict:
// unknown fields are rejected so a typoed spec fails instead of silently
// simulating the default.
package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// MarshalText writes the protocol name ("spms", "spin", "flood").
func (p Protocol) MarshalText() ([]byte, error) {
	switch p {
	case SPMS:
		return []byte("spms"), nil
	case SPIN:
		return []byte("spin"), nil
	case Flooding:
		return []byte("flood"), nil
	default:
		return nil, fmt.Errorf("experiment: cannot marshal unknown protocol %d", int(p))
	}
}

// UnmarshalJSON accepts a protocol name (case-insensitive) or its numeric
// value.
func (p *Protocol) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := ParseProtocol(s)
		if err != nil {
			return err
		}
		*p = v
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*p = Protocol(n)
	return nil
}

// ParseProtocol resolves a protocol name as used in flags and spec files.
func ParseProtocol(s string) (Protocol, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "spms":
		return SPMS, nil
	case "spin":
		return SPIN, nil
	case "flood", "flooding":
		return Flooding, nil
	default:
		return 0, fmt.Errorf("experiment: unknown protocol %q (want spms | spin | flood)", s)
	}
}

// MarshalText writes the workload name ("all-to-all", "clustered").
func (w WorkloadKind) MarshalText() ([]byte, error) {
	switch w {
	case AllToAll, Clustered:
		return []byte(w.String()), nil
	default:
		return nil, fmt.Errorf("experiment: cannot marshal unknown workload %d", int(w))
	}
}

// UnmarshalJSON accepts a workload name (case-insensitive) or its numeric
// value.
func (w *WorkloadKind) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := ParseWorkload(s)
		if err != nil {
			return err
		}
		*w = v
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*w = WorkloadKind(n)
	return nil
}

// ParseWorkload resolves a workload name as used in flags and spec files.
func ParseWorkload(s string) (WorkloadKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "all-to-all", "alltoall":
		return AllToAll, nil
	case "cluster", "clustered":
		return Clustered, nil
	default:
		return 0, fmt.Errorf("experiment: unknown workload %q (want all-to-all | cluster)", s)
	}
}

// MarshalText writes the placement name ("grid", "uniform", "chain",
// "clustered").
func (p PlacementKind) MarshalText() ([]byte, error) {
	switch p {
	case PlaceGrid, PlaceUniform, PlaceChain, PlaceClustered:
		return []byte(p.String()), nil
	default:
		return nil, fmt.Errorf("experiment: cannot marshal unknown placement %d", int(p))
	}
}

// UnmarshalJSON accepts a placement name (case-insensitive) or its numeric
// value.
func (p *PlacementKind) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := ParsePlacement(s)
		if err != nil {
			return err
		}
		*p = v
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*p = PlacementKind(n)
	return nil
}

// ParsePlacement resolves a placement name as used in flags and spec files.
func ParsePlacement(s string) (PlacementKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "grid":
		return PlaceGrid, nil
	case "uniform":
		return PlaceUniform, nil
	case "chain":
		return PlaceChain, nil
	case "cluster", "clustered":
		return PlaceClustered, nil
	default:
		return 0, fmt.Errorf("experiment: unknown placement %q (want grid | uniform | chain | clustered)", s)
	}
}

// MarshalText writes the mobility-model name ("relocate", "waypoint").
func (m MobilityKind) MarshalText() ([]byte, error) {
	switch m {
	case MobRelocate, MobWaypoint:
		return []byte(m.String()), nil
	default:
		return nil, fmt.Errorf("experiment: cannot marshal unknown mobility model %d", int(m))
	}
}

// UnmarshalJSON accepts a mobility-model name (case-insensitive) or its
// numeric value.
func (m *MobilityKind) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := ParseMobilityModel(s)
		if err != nil {
			return err
		}
		*m = v
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*m = MobilityKind(n)
	return nil
}

// ParseMobilityModel resolves a mobility-model name as used in flags and
// spec files.
func ParseMobilityModel(s string) (MobilityKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "relocate", "relocation":
		return MobRelocate, nil
	case "waypoint", "random-waypoint":
		return MobWaypoint, nil
	default:
		return 0, fmt.Errorf("experiment: unknown mobility model %q (want relocate | waypoint)", s)
	}
}

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
