// Package radio models the physical layer of a sensor node: discrete
// transmit power levels with their reachable ranges, transmission timing,
// and per-packet energy accounting.
//
// The default model is parameterized from the MICA2 Berkeley mote numbers in
// Table 1 of the paper: five power levels (3.1622 … 0.0125 mW) reaching
// 91.44 … 5.48 m, a transmission time of 0.05 ms/byte, and receive energy
// equal to the per-bit energy of the lowest transmit level (Er = Em, after
// Savvides & Srivastava [16]).
package radio

import (
	"fmt"
	"math"
	"time"
)

// Level identifies a discrete transmit power level. Level 1 is the maximum
// power (largest range); higher level numbers are lower powers, matching the
// paper's "Power level (1-5)" table.
type Level int8

// MaxPower is the level-1 (maximum power, maximum range) transmit setting.
const MaxPower Level = 1

// Energy is an amount of energy in microjoules (mW × ms).
type Energy float64

// Microjoules returns the energy as a plain float64 in µJ.
func (e Energy) Microjoules() float64 { return float64(e) }

// levelSpec is one row of the power table.
type levelSpec struct {
	powerMW float64 // transmit power in milliwatts
	rangeM  float64 // reliable communication range in meters
}

// Model is an immutable radio parameterization shared by all nodes in a
// simulation. Construct one with MICA2, ScaledMICA2, or NewModel.
type Model struct {
	levels    []levelSpec // index 0 = Level 1 (max power)
	perByte   time.Duration
	rxPowerMW float64 // receive path power draw in mW
	alpha     float64 // path-loss exponent, for analytic scaling
}

// mica2Levels are the Table 1 constants: five transmit settings of the
// MICA2 mote (CC1000 radio).
var mica2Levels = []levelSpec{
	{powerMW: 3.1622, rangeM: 91.44},
	{powerMW: 0.7943, rangeM: 45.72},
	{powerMW: 0.1995, rangeM: 22.86},
	{powerMW: 0.05, rangeM: 11.28},
	{powerMW: 0.0125, rangeM: 5.48},
}

// PerByteTime is Table 1's "Time of transmission": 0.05 ms per byte.
const PerByteTime = 50 * time.Microsecond

// DefaultAlpha is the path-loss exponent used by the paper's energy
// analysis (2-ray ground propagation beyond ~7 m).
const DefaultAlpha = 3.5

// MICA2 returns the paper's default radio model.
func MICA2() *Model {
	return &Model{
		levels:    mica2Levels,
		perByte:   PerByteTime,
		rxPowerMW: mica2Levels[len(mica2Levels)-1].powerMW,
		alpha:     DefaultAlpha,
	}
}

// ScaledMICA2 returns a MICA2-shaped model whose maximum range is maxRange
// meters. Ranges scale proportionally; powers scale as range^alpha so the
// relative economics of the levels are preserved. The experiments that sweep
// "radius of transmission" (Figures 7, 9, 11, 12, 13) use this.
func ScaledMICA2(maxRange float64) (*Model, error) {
	if maxRange <= 0 {
		return nil, fmt.Errorf("radio: non-positive max range %v", maxRange)
	}
	base := mica2Levels[0].rangeM
	s := maxRange / base
	levels := make([]levelSpec, len(mica2Levels))
	for i, l := range mica2Levels {
		levels[i] = levelSpec{
			powerMW: l.powerMW * math.Pow(s, DefaultAlpha),
			rangeM:  l.rangeM * s,
		}
	}
	return &Model{
		levels:    levels,
		perByte:   PerByteTime,
		rxPowerMW: levels[len(levels)-1].powerMW,
		alpha:     DefaultAlpha,
	}, nil
}

// NewModel builds a custom radio model. powersMW and rangesM must be the
// same length, ordered from maximum power (level 1) downward, with strictly
// decreasing ranges. rxPowerMW is the receive draw; alpha the path-loss
// exponent used for analytic extrapolation.
func NewModel(powersMW, rangesM []float64, perByte time.Duration, rxPowerMW, alpha float64) (*Model, error) {
	if len(powersMW) == 0 || len(powersMW) != len(rangesM) {
		return nil, fmt.Errorf("radio: need equal non-empty powers/ranges, got %d/%d", len(powersMW), len(rangesM))
	}
	if perByte <= 0 {
		return nil, fmt.Errorf("radio: non-positive per-byte time %v", perByte)
	}
	levels := make([]levelSpec, len(powersMW))
	for i := range powersMW {
		if powersMW[i] <= 0 || rangesM[i] <= 0 {
			return nil, fmt.Errorf("radio: level %d has non-positive power or range", i+1)
		}
		if i > 0 && rangesM[i] >= rangesM[i-1] {
			return nil, fmt.Errorf("radio: ranges must strictly decrease (level %d)", i+1)
		}
		levels[i] = levelSpec{powerMW: powersMW[i], rangeM: rangesM[i]}
	}
	if rxPowerMW < 0 {
		return nil, fmt.Errorf("radio: negative rx power %v", rxPowerMW)
	}
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	return &Model{levels: levels, perByte: perByte, rxPowerMW: rxPowerMW, alpha: alpha}, nil
}

// NumLevels returns how many discrete power levels the model has.
func (m *Model) NumLevels() int { return len(m.levels) }

// Alpha returns the path-loss exponent.
func (m *Model) Alpha() float64 { return m.alpha }

// MinPower returns the lowest-power level.
func (m *Model) MinPower() Level { return Level(len(m.levels)) }

// valid reports whether l is a level this model defines.
func (m *Model) valid(l Level) bool { return l >= 1 && int(l) <= len(m.levels) }

// PowerMW returns the transmit power in milliwatts at level l.
func (m *Model) PowerMW(l Level) float64 {
	if !m.valid(l) {
		panic(fmt.Sprintf("radio: invalid level %d (model has %d)", l, len(m.levels)))
	}
	return m.levels[l-1].powerMW
}

// RangeM returns the reliable range in meters at level l.
func (m *Model) RangeM(l Level) float64 {
	if !m.valid(l) {
		panic(fmt.Sprintf("radio: invalid level %d (model has %d)", l, len(m.levels)))
	}
	return m.levels[l-1].rangeM
}

// MaxRange returns the range at maximum power; it defines the zone radius.
func (m *Model) MaxRange() float64 { return m.levels[0].rangeM }

// LevelFor returns the lowest-power (highest-numbered) level whose range
// covers dist meters. ok is false when dist exceeds the maximum range.
func (m *Model) LevelFor(dist float64) (Level, bool) {
	if dist > m.levels[0].rangeM {
		return 0, false
	}
	// Walk from the lowest power upward; tables are tiny (5 entries), so a
	// linear scan beats anything fancier.
	for i := len(m.levels) - 1; i >= 0; i-- {
		if m.levels[i].rangeM >= dist {
			return Level(i + 1), true
		}
	}
	return 0, false
}

// TxTime returns the time to transmit a packet of the given size.
func (m *Model) TxTime(bytes int) time.Duration {
	if bytes <= 0 {
		return 0
	}
	return time.Duration(bytes) * m.perByte
}

// TxEnergy returns the energy to transmit bytes at level l: P(l) × t(bytes).
func (m *Model) TxEnergy(bytes int, l Level) Energy {
	if bytes <= 0 {
		return 0
	}
	ms := float64(m.TxTime(bytes)) / float64(time.Millisecond)
	return Energy(m.PowerMW(l) * ms)
}

// RxEnergy returns the energy to receive bytes. Per the paper (Er = Em) this
// uses the lowest transmit level's power draw.
func (m *Model) RxEnergy(bytes int) Energy {
	if bytes <= 0 {
		return 0
	}
	ms := float64(m.TxTime(bytes)) / float64(time.Millisecond)
	return Energy(m.rxPowerMW * ms)
}

// PathLossEnergy returns the relative energy to cover dist meters under the
// continuous d^alpha path-loss model. Used only by the analytic package; the
// simulator always uses the discrete level table.
func (m *Model) PathLossEnergy(dist float64) float64 {
	if dist <= 0 {
		return 0
	}
	return math.Pow(dist, m.alpha)
}
