package traffic

import (
	"hash/fnv"
	"testing"
)

// TestMMPPGoldenDigests pins the generator's output bit for bit: each
// case records a fixed-seed MMPP stream, serializes it in the binary
// trace format and compares the FNV-64a digest of the bytes against a
// value recorded when the generator last changed shape. A digest moves
// only if some RNG draw, label or port choice moved, so a refactor of
// the arrival path that must stay bit-identical cannot drift silently.
// The cases cover every label mode plus the PortAffinity and PortZipf
// port-choice variants and the large-λ normal approximation.
func TestMMPPGoldenDigests(t *testing.T) {
	contiguous := []int{1, 2, 3, 4, 5, 6, 7, 8}
	base := MMPPConfig{
		Sources:  40,
		LambdaOn: 0.3,
		POnOff:   0.1,
		POffOn:   0.05,
		Ports:    8,
		MaxLabel: 8,
		Seed:     9,
	}
	with := func(f func(*MMPPConfig)) MMPPConfig {
		c := base
		f(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  MMPPConfig
		want uint64
	}{
		{"work", with(func(c *MMPPConfig) { c.Label = LabelWorkByPort; c.PortWork = contiguous }), 0x739b08bd2dbd781},
		{"value", with(func(c *MMPPConfig) { c.Label = LabelValueUniform }), 0x2cb0f957f5daf159},
		{"value-by-port", with(func(c *MMPPConfig) { c.Label = LabelValueByPort }), 0x3d839ffb6657c36b},
		{"work-value", with(func(c *MMPPConfig) { c.Label = LabelWorkValue; c.PortWork = contiguous }), 0x2ba535877d3a3af3},
		{"work-affinity", with(func(c *MMPPConfig) { c.Label = LabelWorkByPort; c.PortWork = contiguous; c.PortAffinity = true }), 0x5e1c0c0e6389fc7a},
		{"value-zipf", with(func(c *MMPPConfig) { c.Label = LabelValueUniform; c.PortZipf = 1.2 }), 0xd62a0f59d4386191},
		{"work-value-affinity-zipf", with(func(c *MMPPConfig) {
			c.Label = LabelWorkValue
			c.PortWork = contiguous
			c.PortAffinity = true
			c.PortZipf = 0.8
			c.Seed = 31
		}), 0xa945391d37caf056},
		{"value-large-lambda", with(func(c *MMPPConfig) { c.Label = LabelValueUniform; c.Sources = 3; c.LambdaOn = 40 }), 0x5576d24d2cb35ff9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewMMPP(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if err := Record(g, 2000).WriteBinary(h); err != nil {
				t.Fatal(err)
			}
			if got := h.Sum64(); got != c.want {
				t.Errorf("digest %#x, want %#x", got, c.want)
			}
		})
	}
}
