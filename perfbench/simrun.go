package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"smbm/internal/core"
	"smbm/internal/sim"
)

// setupReps is how many times a run sets up; setup_s is their median.
// Half the set-ups run before the window and half after it, so
// the median spans two moments of a host whose speed drifts over
// seconds.
const setupReps = 10

// simOp is one timed cell and what its check needs.
type simOp struct {
	inst    sim.Instance
	results []sim.Result
	err     error
}

// runSimWorkload is the untraced run of a sim workload: set up
// (panel build plus one warm-up cell), run cells through sim.Sweep for
// the window, check every cell, and set up again.
func runSimWorkload(w workload, c config, rep *report) error {
	var (
		sw    *sim.Sweep
		probe *cellProbe
		win   window
		warm  []simOp
	)
	setUp := func(k int) error {
		c0, err := cpuTime("self")
		if err != nil {
			return err
		}
		start := time.Now()
		s, err := w.newSweep()
		if err != nil {
			return err
		}
		p := hookCell(s)
		inst, res, err := runCell(s, p, setupSeed(c.seed, k))
		win.setupWall = append(win.setupWall, time.Since(start).Seconds())
		cpu, cerr := cpuSince("self", c0)
		if cerr != nil {
			return cerr
		}
		win.setupCPU = append(win.setupCPU, cpu.Seconds())
		warm = append(warm, simOp{inst: inst, results: res, err: err})
		sw, probe = s, p
		return nil
	}
	for k := 0; k < setupReps/2; k++ {
		if err := setUp(k); err != nil {
			return err
		}
	}

	var ops []simOp
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime("self")
	if err != nil {
		return err
	}
	start := time.Now()
	deadline := start.Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		var op simOp
		s, err := measureOp("self", func() {
			op.inst, op.results, op.err = runCell(sw, probe, opSeed(c.seed, i))
		})
		if err != nil {
			return err
		}
		if op.err == nil {
			win.pkts += op.results[0].Stats.Arrived
		}
		ops = append(ops, op)
		win.ops = append(win.ops, s)
	}
	win.wall = time.Since(start)
	if win.cpu, err = cpuSince("self", cpu0); err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	win.heapBytes = m1.TotalAlloc - m0.TotalAlloc

	for k := setupReps / 2; k < setupReps; k++ {
		if err := setUp(k); err != nil {
			return err
		}
	}
	all := append(warm, ops...)
	for i, err := range checkAll(all, func(o simOp) error { return checkCell(o.inst, o.results) }) {
		rep.attempt()
		if all[i].err != nil {
			err = all[i].err
		}
		if err != nil {
			rep.fail(err)
		}
	}
	return rep.endToEnd(win)
}

// checkAll runs check over every item on GOMAXPROCS goroutines and
// returns each item's error (nil when it passed), in item order. Checks
// run outside every timed interval, so spreading them over the cores
// only shortens the run.
func checkAll[T any](items []T, check func(T) error) []error {
	errs := make([]error, len(items))
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = check(items[i])
			}
		}()
	}
	for i := range items {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// checkCell replays the cell's materialized trace through a fresh OPT
// proxy and a fresh switch per policy with sim.RunTrace — bypassing
// the memoized provider and the sweep's reused scratch systems — and
// requires every policy's Stats and the OPT objective to be
// bit-identical to what the cell reported.
func checkCell(inst sim.Instance, results []sim.Result) error {
	tr, err := materialize(inst.Provider)
	if err != nil {
		return fmt.Errorf("check: materializing trace: %w", err)
	}
	optSys, err := sim.NewOptProxy(inst.Cfg)
	if err != nil {
		return err
	}
	optStats, err := sim.RunTrace(optSys, tr, inst.FlushEvery)
	if err != nil {
		return fmt.Errorf("check: OPT reference: %w", err)
	}
	optThroughput := optStats.Throughput(inst.Cfg.Model)
	if len(results) != len(inst.Policies) {
		return fmt.Errorf("check: cell reported %d policies, roster has %d", len(results), len(inst.Policies))
	}
	for i, p := range inst.Policies {
		sw, err := core.New(inst.Cfg, p)
		if err != nil {
			return err
		}
		want, err := sim.RunTrace(sw, tr, inst.FlushEvery)
		if err != nil {
			return fmt.Errorf("check: %s reference: %w", p.Name(), err)
		}
		got := results[i]
		switch {
		case got.Policy != p.Name():
			return fmt.Errorf("check: result %d is %s, want %s", i, got.Policy, p.Name())
		case got.Stats != want:
			return fmt.Errorf("check: %s stats %+v, reference %+v", p.Name(), got.Stats, want)
		case got.OptThroughput != optThroughput:
			return fmt.Errorf("check: OPT objective %d, reference %d", got.OptThroughput, optThroughput)
		}
	}
	return nil
}
