// Package opt provides the reference algorithms the paper compares
// against:
//
//   - SPQProc / SPQVal / SPQComb: the simulation study's OPT proxy — a
//     single priority queue over the whole buffer with n·C cores,
//     processing smallest-work-first (processing model),
//     largest-value-first (value model) or densest-first, value per
//     remaining cycle (combined model), with greedy push-out admission.
//     Optimal in the single-queue model, hence an upper bound on the
//     shared-memory OPT.
//   - ExactProcessing / ExactValue: exhaustive offline optimum for tiny
//     instances, used by tests to validate competitive bounds as
//     executable invariants.
package opt

import (
	"fmt"

	"smbm/internal/bmset"
	"smbm/internal/core"
	"smbm/internal/pkt"
)

// SPQProc is the processing-model OPT proxy: one shared priority queue
// ordered by residual work, n·C cores each applying one cycle per slot to
// a distinct smallest-residual packet, and push-out admission evicting
// the largest residual when a smaller packet arrives to a full buffer.
type SPQProc struct {
	cfg   core.Config
	cores int
	res   []int64 // res[r] = packets with residual work r, 1-based
	occ   int
	hi    int // upper bound on the largest non-empty residual (lazily tightened)
	slot  int64
	stats core.Stats

	// Fault-injection overrides, mirroring core.Switch: speedOv holds
	// per-port speedup overrides (negative = nominal) that shrink the
	// proxy's aggregate core budget, bufLimit transiently caps the
	// effective buffer.
	speedOv  []int
	bufLimit int
}

// NewSPQProc builds the proxy for the given switch configuration.
func NewSPQProc(cfg core.Config) (*SPQProc, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != core.ModelProcessing {
		return nil, fmt.Errorf("%w: SPQProc requires the processing model", core.ErrBadConfig)
	}
	return &SPQProc{
		cfg:   cfg,
		cores: cfg.Ports * cfg.Speedup,
		res:   make([]int64, cfg.MaxLabel+1),
	}, nil
}

// Name implements the sim.System contract.
func (s *SPQProc) Name() string { return "OPT(SPQ)" }

// Stats returns accumulated counters. TransmittedWork and latency are not
// tracked by the proxy and stay zero.
func (s *SPQProc) Stats() core.Stats { return s.stats }

// Occupancy returns the buffered packet count.
func (s *SPQProc) Occupancy() int { return s.occ }

// SetPortSpeedup overrides port i's contribution to the proxy's core
// budget (c == 0 removes it, negative restores the configured Speedup),
// so the OPT proxy degrades by exactly the capacity a faulted
// shared-memory switch loses.
func (s *SPQProc) SetPortSpeedup(i, c int) {
	s.speedOv = setPortSpeedup(s.speedOv, s.cfg.Ports, i, c)
}

// ResetSpeedups clears all per-port speedup overrides.
func (s *SPQProc) ResetSpeedups() { resetSpeedups(s.speedOv) }

// SetBufferLimit transiently caps the proxy's effective buffer at b
// packets; b <= 0 restores the configured B.
func (s *SPQProc) SetBufferLimit(b int) { s.bufLimit = clampLimit(b) }

// coreBudget returns the aggregate cores per slot under any active
// overrides.
func (s *SPQProc) coreBudget() int {
	return coreBudget(s.speedOv, s.cfg.Ports, s.cfg.Speedup)
}

// effBuffer returns the effective buffer under any active squeeze.
func (s *SPQProc) effBuffer() int { return effBuffer(s.bufLimit, s.cfg.Buffer) }

// Arrive admits p greedily with push-out of the largest residual.
func (s *SPQProc) Arrive(p pkt.Packet) error {
	if err := p.Validate(s.cfg.Ports, s.cfg.MaxLabel); err != nil {
		return err
	}
	s.stats.Arrived++
	if s.occ >= s.effBuffer() {
		// Evict the largest residual if strictly larger than the arrival.
		// hi bounds the scan: buckets above it are empty by invariant, so
		// the scan starts where the last one left off instead of at
		// MaxLabel, and tightens hi for the next congested arrival.
		worst := 0
		for r := s.hi; r >= 1; r-- {
			if s.res[r] > 0 {
				worst = r
				break
			}
		}
		s.hi = worst
		if worst <= p.Work {
			s.stats.Dropped++
			return nil
		}
		s.res[worst]--
		s.occ--
		s.stats.PushedOut++
	}
	s.res[p.Work]++
	if p.Work > s.hi {
		s.hi = p.Work
	}
	s.occ++
	s.stats.Accepted++
	if s.occ > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = s.occ
	}
	return nil
}

// Step runs one slot: arrivals then transmission.
func (s *SPQProc) Step(arrivals []pkt.Packet) error {
	for _, p := range arrivals {
		if err := s.Arrive(p); err != nil {
			return err
		}
	}
	s.Transmit()
	return nil
}

// Transmit applies one cycle to each of the min(occupancy, cores)
// smallest-residual packets.
func (s *SPQProc) Transmit() {
	budget := int64(s.coreBudget())
	// Cycles only move packets to smaller residuals, so hi stays a valid
	// upper bound and the scan never visits the empty buckets above it.
	for r := 1; r <= s.hi && budget > 0; r++ {
		n := s.res[r]
		if n == 0 {
			continue
		}
		if n > budget {
			n = budget
		}
		budget -= n
		s.res[r] -= n
		s.stats.CyclesUsed += n
		if r == 1 {
			s.occ -= int(n)
			s.stats.Transmitted += n
			s.stats.TransmittedValue += n
		} else {
			// r-1 < r was already served this slot, so these packets
			// cannot receive a second cycle now.
			s.res[r-1] += n
		}
	}
	s.slot++
	s.stats.Slots++
}

// Drain transmits with no arrivals until empty, returning slots used.
// Like core.Switch.Drain it cannot terminate while every port is
// blacked out; fault injectors clear overrides before draining.
func (s *SPQProc) Drain() int {
	var slots int
	for s.occ > 0 {
		s.Transmit()
		slots++
	}
	return slots
}

// DrainMax is Drain bounded to at most max transmission phases,
// returning the slots used and whether the proxy actually emptied.
func (s *SPQProc) DrainMax(max int) (int, bool) {
	var slots int
	for s.occ > 0 {
		if slots >= max {
			return slots, false
		}
		s.Transmit()
		slots++
	}
	return slots, true
}

// Reset clears all buffered packets, statistics and fault overrides.
func (s *SPQProc) Reset() {
	for i := range s.res {
		s.res[i] = 0
	}
	s.occ = 0
	s.hi = 0
	s.slot = 0
	s.stats = core.Stats{}
	s.speedOv = nil
	s.bufLimit = 0
}

// --- shared fault-override helpers ---------------------------------------

// setPortSpeedup records an override for port i in ov (allocating it
// lazily for n ports), returning the possibly-new slice. c < 0 restores
// nominal.
func setPortSpeedup(ov []int, n, i, c int) []int {
	if i < 0 || i >= n {
		panic(fmt.Sprintf("opt: SetPortSpeedup port %d out of [0,%d)", i, n))
	}
	if ov == nil {
		if c < 0 {
			return nil
		}
		ov = make([]int, n)
		for j := range ov {
			ov[j] = -1
		}
	}
	ov[i] = c
	return ov
}

// resetSpeedups restores every entry of ov to nominal.
func resetSpeedups(ov []int) {
	for i := range ov {
		ov[i] = -1
	}
}

// coreBudget sums per-port effective speedups under overrides ov.
func coreBudget(ov []int, ports, speedup int) int {
	if ov == nil {
		return ports * speedup
	}
	var total int
	for i := 0; i < ports; i++ {
		if ov[i] >= 0 {
			total += ov[i]
		} else {
			total += speedup
		}
	}
	return total
}

// clampLimit normalizes a buffer-limit argument (<= 0 means "none").
func clampLimit(b int) int {
	if b <= 0 {
		return 0
	}
	return b
}

// effBuffer applies limit to the configured buffer.
func effBuffer(limit, buffer int) int {
	if limit > 0 && limit < buffer {
		return limit
	}
	return buffer
}

// SPQVal is the value-model OPT proxy: one shared priority queue ordered
// by value, n·C transmissions of the most valuable packets per slot, and
// push-out admission evicting the minimum value.
type SPQVal struct {
	cfg   core.Config
	cores int
	vals  *bmset.Set
	slot  int64
	stats core.Stats

	// Fault-injection overrides; see SPQProc.
	speedOv  []int
	bufLimit int
}

// NewSPQVal builds the proxy for the given switch configuration.
func NewSPQVal(cfg core.Config) (*SPQVal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != core.ModelValue {
		return nil, fmt.Errorf("%w: SPQVal requires the value model", core.ErrBadConfig)
	}
	return &SPQVal{
		cfg:   cfg,
		cores: cfg.Ports * cfg.Speedup,
		vals:  bmset.New(cfg.MaxLabel),
	}, nil
}

// Name implements the sim.System contract.
func (s *SPQVal) Name() string { return "OPT(SPQ)" }

// Stats returns accumulated counters.
func (s *SPQVal) Stats() core.Stats { return s.stats }

// Occupancy returns the buffered packet count.
func (s *SPQVal) Occupancy() int { return s.vals.Len() }

// SetPortSpeedup overrides port i's contribution to the proxy's
// transmission budget; see SPQProc.SetPortSpeedup.
func (s *SPQVal) SetPortSpeedup(i, c int) {
	s.speedOv = setPortSpeedup(s.speedOv, s.cfg.Ports, i, c)
}

// ResetSpeedups clears all per-port speedup overrides.
func (s *SPQVal) ResetSpeedups() { resetSpeedups(s.speedOv) }

// SetBufferLimit transiently caps the proxy's effective buffer at b
// packets; b <= 0 restores the configured B.
func (s *SPQVal) SetBufferLimit(b int) { s.bufLimit = clampLimit(b) }

// coreBudget returns per-slot transmissions under any active overrides.
func (s *SPQVal) coreBudget() int {
	return coreBudget(s.speedOv, s.cfg.Ports, s.cfg.Speedup)
}

// effBuffer returns the effective buffer under any active squeeze.
func (s *SPQVal) effBuffer() int { return effBuffer(s.bufLimit, s.cfg.Buffer) }

// Arrive admits p greedily with push-out of the minimum value.
func (s *SPQVal) Arrive(p pkt.Packet) error {
	if err := p.Validate(s.cfg.Ports, s.cfg.MaxLabel); err != nil {
		return err
	}
	s.stats.Arrived++
	if s.vals.Len() >= s.effBuffer() {
		if s.vals.Min() >= p.Value {
			s.stats.Dropped++
			return nil
		}
		s.vals.PopMin()
		s.stats.PushedOut++
	}
	s.vals.Add(p.Value)
	s.stats.Accepted++
	if n := s.vals.Len(); n > s.stats.MaxOccupancy {
		s.stats.MaxOccupancy = n
	}
	return nil
}

// Step runs one slot: arrivals then transmission.
func (s *SPQVal) Step(arrivals []pkt.Packet) error {
	for _, p := range arrivals {
		if err := s.Arrive(p); err != nil {
			return err
		}
	}
	s.Transmit()
	return nil
}

// Transmit sends the min(occupancy, cores) most valuable packets.
func (s *SPQVal) Transmit() {
	// coreBudget is O(n) under active overrides and cannot change
	// mid-phase: hoist it, pop the exact count, batch the counters.
	pops := s.coreBudget()
	if n := s.vals.Len(); pops > n {
		pops = n
	}
	sum := s.vals.PopMaxN(pops)
	p64 := int64(pops)
	s.stats.Transmitted += p64
	s.stats.TransmittedValue += sum
	s.stats.CyclesUsed += p64
	s.slot++
	s.stats.Slots++
}

// Drain transmits with no arrivals until empty, returning slots used.
// See SPQProc.Drain for the blackout caveat.
func (s *SPQVal) Drain() int {
	var slots int
	for !s.vals.Empty() {
		s.Transmit()
		slots++
	}
	return slots
}

// DrainMax is Drain bounded to at most max transmission phases,
// returning the slots used and whether the proxy actually emptied.
func (s *SPQVal) DrainMax(max int) (int, bool) {
	var slots int
	for !s.vals.Empty() {
		if slots >= max {
			return slots, false
		}
		s.Transmit()
		slots++
	}
	return slots, true
}

// Reset clears all buffered packets, statistics and fault overrides.
func (s *SPQVal) Reset() {
	s.vals.Clear()
	s.slot = 0
	s.stats = core.Stats{}
	s.speedOv = nil
	s.bufLimit = 0
}
