package arch

import "testing"

// TestDefaultValidates ensures every Default21264 level used in the paper
// passes validation.
func TestDefaultValidates(t *testing.T) {
	for _, level := range []int{1, 2, 3, 4, 6, 8} {
		if err := Default21264(level).Validate(); err != nil {
			t.Errorf("level %d: %v", level, err)
		}
	}
}

// TestValidateRejects exercises each validation rule.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no contexts", func(c *Config) { c.Contexts = 0 }},
		{"no fetch width", func(c *Config) { c.FetchWidth = 0 }},
		{"no fetch threads", func(c *Config) { c.FetchThreads = 0 }},
		{"no decode", func(c *Config) { c.DecodeWidth = 0 }},
		{"no issue", func(c *Config) { c.IssueWidth = 0 }},
		{"no retire", func(c *Config) { c.RetireWidth = 0 }},
		{"tiny window", func(c *Config) { c.WindowSize = 2 }},
		{"no int queue", func(c *Config) { c.IntQueue = 0 }},
		{"no fp queue", func(c *Config) { c.FPQueue = 0 }},
		{"no int regs", func(c *Config) { c.IntRenameRegs = 0 }},
		{"no fp regs", func(c *Config) { c.FPRenameRegs = 0 }},
		{"no ialu", func(c *Config) { c.IntALUs = 0 }},
		{"no fpu", func(c *Config) { c.FPUnits = 0 }},
		{"no lsu", func(c *Config) { c.LSUnits = 0 }},
		{"negative penalty", func(c *Config) { c.MispredictPenalty = -1 }},
		{"odd L1D sets", func(c *Config) { c.L1DSets = 300 }},
		{"odd line", func(c *Config) { c.L1DLineBytes = 48 }},
		{"odd page", func(c *Config) { c.PageBytes = 5000 }},
		{"no TLB", func(c *Config) { c.DTLBEntries = 0 }},
		{"zero L1D assoc", func(c *Config) { c.L1DAssoc = 0 }},
		{"negative L2 assoc", func(c *Config) { c.L2Assoc = -1 }},
		{"TLB below one set", func(c *Config) { c.DTLBEntries = 2 }},
		{"TLB not a multiple of 4", func(c *Config) { c.DTLBEntries = 6 }},
		{"TLB sets not pow2", func(c *Config) { c.DTLBEntries = 12 }},
		{"huge PHT", func(c *Config) { c.BranchPHTBits = 30 }},
		{"huge history", func(c *Config) { c.BranchHistBits = 20 }},
	}
	for _, tc := range cases {
		cfg := Default21264(2)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid config", tc.name)
		}
	}
}

// TestCacheGeometry sanity-checks the 21264-like capacities.
func TestCacheGeometry(t *testing.T) {
	c := Default21264(4)
	if got := c.L1DSets * c.L1DAssoc * c.L1DLineBytes; got != 64<<10 {
		t.Errorf("L1D capacity %d, want 64KB", got)
	}
	if got := c.L1ISets * c.L1IAssoc * c.L1ILineBytes; got != 64<<10 {
		t.Errorf("L1I capacity %d, want 64KB", got)
	}
	if got := c.L2Sets * c.L2Assoc * c.L2LineBytes; got != 4<<20 {
		t.Errorf("L2 capacity %d, want 4MB", got)
	}
	if c.Contexts != 4 {
		t.Errorf("contexts %d, want 4", c.Contexts)
	}
}
