package traffic

import (
	"fmt"

	"smbm/internal/pkt"
)

// Constant emits the same burst every slot — constant-bit-rate traffic
// for calibration tests and steady-state experiments.
type Constant struct {
	// Burst is emitted each slot (served as a borrowed burst).
	Burst []pkt.Packet
}

// Next implements Source.
func (c *Constant) Next() []pkt.Packet { return c.Burst[:len(c.Burst):len(c.Burst)] }

// Periodic emits a burst every Period slots (first burst at slot Offset),
// and nothing otherwise — the paper's "every i-th time slot, another [i]
// arrives" trickles.
type Periodic struct {
	// Burst is emitted on firing slots (served as a borrowed burst).
	Burst []pkt.Packet
	// Period is the firing interval in slots (>= 1).
	Period int
	// Offset delays the first firing.
	Offset int

	slot int
}

// Next implements Source.
func (p *Periodic) Next() []pkt.Packet {
	s := p.slot
	p.slot++
	period := p.Period
	if period < 1 {
		period = 1
	}
	if s < p.Offset || (s-p.Offset)%period != 0 {
		return nil
	}
	return p.Burst[:len(p.Burst):len(p.Burst)]
}

// Mix interleaves sources: each slot concatenates every source's burst
// in order, modeling independent input ports feeding one switch.
type Mix struct {
	// Sources are drained in order every slot.
	Sources []Source
}

// Next implements Source.
func (m *Mix) Next() []pkt.Packet {
	var out []pkt.Packet
	for _, s := range m.Sources {
		out = append(out, s.Next()...)
	}
	return out
}

// Limit truncates a source after N slots, then stays silent.
type Limit struct {
	// Source is the wrapped generator.
	Source Source
	// N is the number of live slots.
	N int

	used int
}

// Next implements Source.
func (l *Limit) Next() []pkt.Packet {
	if l.used >= l.N {
		return nil
	}
	l.used++
	return l.Source.Next()
}

// Validate-style interface checks.
var (
	_ Source = (*Constant)(nil)
	_ Source = (*Periodic)(nil)
	_ Source = (*Mix)(nil)
	_ Source = (*Limit)(nil)
)

// OnOff wraps a source with a deterministic duty cycle: On slots of
// pass-through followed by Off slots of silence, repeating. Useful for
// reproducible burst patterns in tests (the random counterpart is MMPP).
type OnOff struct {
	// Source is the wrapped generator (advanced only during on-phases).
	Source Source
	// On and Off are the phase lengths in slots.
	On, Off int

	slot int
}

// Next implements Source.
func (o *OnOff) Next() []pkt.Packet {
	on, off := o.On, o.Off
	if on < 1 {
		on = 1
	}
	if off < 0 {
		off = 0
	}
	pos := o.slot % (on + off)
	o.slot++
	if pos >= on {
		return nil
	}
	return o.Source.Next()
}

var _ Source = (*OnOff)(nil)

// Describe returns a one-line human-readable summary of a recorded
// trace, used by CLI tooling.
func Describe(tr Trace) string {
	var peak int
	for _, slot := range tr {
		if len(slot) > peak {
			peak = len(slot)
		}
	}
	rate := 0.0
	if len(tr) > 0 {
		rate = float64(tr.Packets()) / float64(len(tr))
	}
	return fmt.Sprintf("%d slots, %d packets, %.2f pkts/slot mean, %d peak",
		len(tr), tr.Packets(), rate, peak)
}
