// Package mac models the channel-access delay of a slotted CSMA/CA MAC.
//
// Following the paper's §4 model (after Kim & Lee and Khattab et al.), the
// expected contention delay for a transmission whose radio reaches n nodes
// is G·n²: contention grows quadratically with the number of stations
// sharing the channel. The simulation adds the slotted random backoff of
// Table 1 (slot time 0.1 ms, 20 slots) on top of the deterministic term.
// Every simulated run (experiment.RunWith, network.DefaultConfig and the
// figures' Table 1) uses AnalyticConfig, G = 0.01 ms, with carrier sense
// off (DESIGN.md §4): the per-transmission delay is the whole contention
// model. The paper notes that MAC models with higher powers of n, or
// exponential in n, would only favor SPMS further.
package mac

import (
	"fmt"
	"time"
)

// Config parameterizes the CSMA/CA model. The zero value is not valid; use
// DefaultConfig or AnalyticConfig.
type Config struct {
	// G is the proportionality constant of the deterministic G·n²
	// contention term, in milliseconds. The paper's §4 analysis uses 0.01,
	// and so does every simulated run (AnalyticConfig).
	G float64
	// SlotTime is the backoff slot duration (Table 1: 0.1 ms).
	SlotTime time.Duration
	// NumSlots is the size of the backoff window (Table 1: 20).
	NumSlots int
}

// DefaultConfig returns Table 1's slotted backoff with no G·n² term. Only
// the core, spin and flood test fixtures use it; simulated runs use
// AnalyticConfig.
func DefaultConfig() Config {
	return Config{
		G:        0,
		SlotTime: 100 * time.Microsecond,
		NumSlots: 20,
	}
}

// AnalyticConfig returns the §4 model parameters, where the deterministic
// access delay is the closed-form G·n² with G = 0.01 ms, plus Table 1's
// slotted backoff. It is the configuration every simulated run uses.
func AnalyticConfig() Config {
	return Config{
		G:        0.01,
		SlotTime: 100 * time.Microsecond,
		NumSlots: 20,
	}
}

// Validate checks the configuration is usable.
func (c Config) Validate() error {
	if c.G < 0 {
		return fmt.Errorf("mac: negative contention constant G=%v", c.G)
	}
	if c.SlotTime < 0 {
		return fmt.Errorf("mac: negative slot time %v", c.SlotTime)
	}
	if c.NumSlots < 0 {
		return fmt.Errorf("mac: negative slot count %d", c.NumSlots)
	}
	return nil
}

// CSMA is the paper's quadratic-contention slotted CSMA/CA model.
type CSMA struct {
	cfg Config
}

// NewCSMA builds the model, validating the configuration.
func NewCSMA(cfg Config) (*CSMA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CSMA{cfg: cfg}, nil
}

// Config returns the model's configuration.
func (c *CSMA) Config() Config { return c.cfg }

// NumSlots returns the backoff window size, for callers drawing slots.
func (c *CSMA) NumSlots() int { return c.cfg.NumSlots }

// AccessDelay returns one transmission's channel-access delay: G·n²
// milliseconds for n contenders, the nodes within the transmitter's
// current radio range (itself included), plus backoffSlot slots, a
// uniform variate in [0, NumSlots) drawn by the caller. Negative inputs
// are clamped to zero; a transmitter with no contenders still counts
// itself, so contenders < 1 is treated as 1.
func (c *CSMA) AccessDelay(contenders, backoffSlot int) time.Duration {
	if contenders < 1 {
		contenders = 1
	}
	if backoffSlot < 0 {
		backoffSlot = 0
	}
	n := float64(contenders)
	contention := time.Duration(c.cfg.G * n * n * float64(time.Millisecond))
	return contention + time.Duration(backoffSlot)*c.cfg.SlotTime
}
