package mac

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.G != 0 {
		t.Fatalf("G=%v, want 0 (the test fixtures' backoff-only MAC; simulated runs use AnalyticConfig)", cfg.G)
	}
	if cfg.SlotTime != 100*time.Microsecond {
		t.Fatalf("SlotTime=%v, want 0.1ms", cfg.SlotTime)
	}
	if cfg.NumSlots != 20 {
		t.Fatalf("NumSlots=%d, want 20", cfg.NumSlots)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{"default ok", DefaultConfig(), false},
		{"zero ok (no contention model)", Config{}, false},
		{"negative G", Config{G: -1}, true},
		{"negative slot time", Config{SlotTime: -time.Millisecond}, true},
		{"negative slots", Config{NumSlots: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestNewCSMARejectsInvalid(t *testing.T) {
	if _, err := NewCSMA(Config{G: -1}); err == nil {
		t.Fatal("NewCSMA should reject invalid config")
	}
}

func TestAnalyticConfigMatchesSection4(t *testing.T) {
	cfg := AnalyticConfig()
	if cfg.G != 0.01 {
		t.Fatalf("G=%v, want 0.01 (§4 sample value)", cfg.G)
	}
	if cfg.SlotTime != 100*time.Microsecond || cfg.NumSlots != 20 {
		t.Fatalf("analytic slot params diverged from Table 1: %+v", cfg)
	}
}

func TestAccessDelayQuadratic(t *testing.T) {
	c, err := NewCSMA(AnalyticConfig())
	if err != nil {
		t.Fatalf("NewCSMA: %v", err)
	}
	// G·n² with G=0.01 ms: n=5 → 0.25 ms; n=45 → 20.25 ms.
	tests := []struct {
		n    int
		want time.Duration
	}{
		{1, 10 * time.Microsecond},
		{5, 250 * time.Microsecond},
		{45, 20250 * time.Microsecond},
	}
	for _, tt := range tests {
		if got := c.AccessDelay(tt.n, 0); got != tt.want {
			t.Fatalf("AccessDelay(%d,0)=%v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestAccessDelayBackoffSlots(t *testing.T) {
	c, err := NewCSMA(AnalyticConfig())
	if err != nil {
		t.Fatalf("NewCSMA: %v", err)
	}
	base := c.AccessDelay(10, 0)
	if got := c.AccessDelay(10, 3); got != base+300*time.Microsecond {
		t.Fatalf("3-slot backoff = %v, want base+0.3ms", got)
	}
}

func TestAccessDelayClampsPathologicalInputs(t *testing.T) {
	c, err := NewCSMA(AnalyticConfig())
	if err != nil {
		t.Fatalf("NewCSMA: %v", err)
	}
	if got, want := c.AccessDelay(0, 0), c.AccessDelay(1, 0); got != want {
		t.Fatalf("0 contenders should clamp to 1: %v vs %v", got, want)
	}
	if got, want := c.AccessDelay(-7, -3), c.AccessDelay(1, 0); got != want {
		t.Fatalf("negative inputs should clamp: %v vs %v", got, want)
	}
}

func TestAccessDelayMonotoneInContendersProperty(t *testing.T) {
	c, err := NewCSMA(AnalyticConfig())
	if err != nil {
		t.Fatalf("NewCSMA: %v", err)
	}
	prop := func(a, b uint8, slot uint8) bool {
		lo, hi := int(a), int(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		s := int(slot) % c.NumSlots()
		return c.AccessDelay(lo, s) <= c.AccessDelay(hi, s)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSPMSContentionAdvantage(t *testing.T) {
	// The paper's core delay argument: transmitting at low power reaches
	// fewer contenders (ns=5) than max power (n1=45), so per-hop MAC delay
	// is dramatically lower. Verify the model reproduces the 81× gap.
	c, err := NewCSMA(AnalyticConfig())
	if err != nil {
		t.Fatalf("NewCSMA: %v", err)
	}
	spin := c.AccessDelay(45, 0)
	spms := c.AccessDelay(5, 0)
	if ratio := float64(spin) / float64(spms); ratio != 81 {
		t.Fatalf("contention ratio (45/5 nodes) = %v, want 81 (=9²)", ratio)
	}
}
