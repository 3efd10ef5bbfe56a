package config

import (
	"math"
	"testing"
)

func TestDefaultMatchesTableIII(t *testing.T) {
	c := Default(4)
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.AESGCMLatency != 40 {
		t.Errorf("AESGCMLatency=%d, want 40 (Table III)", c.AESGCMLatency)
	}
	if c.PCIeBandwidth != 32 {
		t.Errorf("PCIeBandwidth=%v, want 32 B/cycle (PCIe-v4 32GB/s)", c.PCIeBandwidth)
	}
	if c.NVLinkBandwidth != 50 {
		t.Errorf("NVLinkBandwidth=%v, want 50 B/cycle (NVLink2 50GB/s)", c.NVLinkBandwidth)
	}
	if c.Alpha != 0.9 || c.Beta != 0.5 || c.IntervalT != 1000 {
		t.Errorf("alpha/beta/T = %v/%v/%d, want 0.9/0.5/1000", c.Alpha, c.Beta, c.IntervalT)
	}
	if c.BatchSize != 16 {
		t.Errorf("BatchSize=%d, want 16", c.BatchSize)
	}
}

// Table I: storage overhead and total OTP entries in the Private scheme.
func TestTableI_OTPStorage(t *testing.T) {
	cases := []struct {
		gpus, mult int
		wantOTPs   int
		wantKB     float64
	}{
		{4, 1, 32, 2.75}, {4, 2, 64, 5.51}, {4, 4, 128, 11.02},
		{4, 8, 256, 22.03}, {4, 16, 512, 44.06},
		{8, 1, 128, 11.02}, {8, 4, 512, 44.06}, {8, 16, 2048, 176.25},
		{16, 1, 512, 44.06}, {16, 4, 2048, 176.25}, {16, 16, 8192, 705.00},
		{32, 1, 2048, 176.25}, {32, 8, 16384, 1410.00}, {32, 16, 32768, 2820.00},
	}
	for _, tc := range cases {
		c := Default(tc.gpus)
		c.OTPMultiplier = tc.mult
		if got := c.TotalOTPEntries(); got != tc.wantOTPs {
			t.Errorf("%d GPUs %dx: entries=%d, want %d", tc.gpus, tc.mult, got, tc.wantOTPs)
		}
		if got := c.OTPStorageKB(); math.Abs(got-tc.wantKB) > 0.011 {
			t.Errorf("%d GPUs %dx: storage=%.3f KB, want %.2f", tc.gpus, tc.mult, got, tc.wantKB)
		}
	}
}

func TestOTPEntriesPerGPU(t *testing.T) {
	// Section III-A: 4-GPU OTP 4x -> 4 peers x 2 directions x 4 = 32 per GPU.
	c := Default(4)
	if got := c.OTPEntriesPerGPU(); got != 32 {
		t.Errorf("entries per GPU=%d, want 32", got)
	}
	// Section V-D: 8 GPUs -> 64 per GPU, 16 GPUs -> 128 per GPU at 4x.
	if got := Default(8).OTPEntriesPerGPU(); got != 64 {
		t.Errorf("8-GPU entries per GPU=%d, want 64", got)
	}
	if got := Default(16).OTPEntriesPerGPU(); got != 128 {
		t.Errorf("16-GPU entries per GPU=%d, want 128", got)
	}
}

func TestMACStorageMatchesSectionIVD(t *testing.T) {
	// max(16, 64) x 4 peers x 8B = 2KB per GPU in a 4-GPU system.
	c := Default(4)
	if got := c.MACStorageBytesPerGPU(); got != 2048 {
		t.Errorf("MAC storage=%d B, want 2048", got)
	}
}

func TestValidateAcceptsMaxGPUs(t *testing.T) {
	if err := Default(MaxGPUs).Validate(); err != nil {
		t.Errorf("Default(%d): %v", MaxGPUs, err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"one gpu":          func(c *Config) { c.NumGPUs = 1 },
		"256 gpus":         func(c *Config) { c.NumGPUs = MaxGPUs + 1 },
		"zero multiplier":  func(c *Config) { c.OTPMultiplier = 0 },
		"zero aes latency": func(c *Config) { c.Secure = true; c.AESGCMLatency = 0 },
		"zero bandwidth":   func(c *Config) { c.PCIeBandwidth = 0 },
		"zero window":      func(c *Config) { c.OutstandingRequests = 0 },
		"alpha > 1":        func(c *Config) { c.Alpha = 1.5 },
		"beta < 0":         func(c *Config) { c.Beta = -0.1 },
		"zero interval":    func(c *Config) { c.IntervalT = 0 },
		"zero batch":       func(c *Config) { c.BatchSize = 0 },
		"ragged page":      func(c *Config) { c.PageSize = 100 },
		"zero scale":       func(c *Config) { c.Scale = 0 },
	}
	for name, mutate := range mutations {
		c := Default(4)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", name)
		}
	}
}

func TestSchemeString(t *testing.T) {
	want := map[OTPScheme]string{
		OTPPrivate: "Private", OTPShared: "Shared",
		OTPCached: "Cached", OTPDynamic: "Dynamic", OTPScheme(99): "OTPScheme(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("String(%d)=%q, want %q", int(s), got, w)
		}
	}
}
