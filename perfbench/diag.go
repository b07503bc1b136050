package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// diagnostics describes the host and the run. It is printed for the
// reader and never used to gate or normalize a metric.
type diagnostics struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	// Ops counts the timed ops.
	Ops int `json:"ops"`
	// TailPercentile and TailBeyond name the percentile reported as
	// op_ms_tail and the samples above it (untraced runs only).
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	TailBeyond     int     `json:"tail_beyond,omitempty"`
	// FailedRatio is failed / attempted.
	FailedRatio float64 `json:"failed_ratio"`
	// HostProbeBeforeMs and HostProbeAfterMs time the same fixed
	// integer loop before and after the run. When a steadiness check
	// fails, a probe that moved with the metric points at host drift;
	// a steady probe points at the program.
	HostProbeBeforeMs float64 `json:"host_probe_before_ms"`
	HostProbeAfterMs  float64 `json:"host_probe_after_ms"`
	// MemProbeBeforeMs and MemProbeAfterMs time a fixed chain of
	// dependent loads over a 16 MiB array. The host drifts for
	// memory-bound work (every workload here) while the integer loop
	// barely moves, so this probe is the one to compare.
	MemProbeBeforeMs float64 `json:"mem_probe_before_ms"`
	MemProbeAfterMs  float64 `json:"mem_probe_after_ms"`
	// StealShare is the share of all CPU time over the run that the
	// hypervisor gave to other guests (/proc/stat steal). Wall-clock
	// figures move with it; CPU-time figures do not.
	StealShare float64 `json:"steal_share"`
	// Spans is where the traced run wrote its spans.
	Spans string `json:"spans,omitempty"`
	// Failures lists the first few failed checks.
	Failures []string `json:"failures,omitempty"`
}

func newDiagnostics(workload string, seed int64, traced bool) *diagnostics {
	return &diagnostics{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// probeSink keeps the probe loops from being optimized away.
var probeSink uint64

// hostProbe times two fixed loops and returns the median of their
// repetitions in milliseconds: a 4M-step xorshift loop (pure integer
// work) and 1M dependent loads chasing a random cycle through a 16 MiB
// array (memory latency). The array is handed back to the OS before
// returning, so the probe does not raise the benchmark's resident set.
func hostProbe() (cpuMs, memMs float64) {
	var cpu []float64
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 1<<22; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		cpu = append(cpu, ms(time.Since(start)))
		probeSink += x
	}
	// Sattolo's shuffle: a single cycle through every slot.
	next := make([]uint32, 1<<22)
	for i := range next {
		next[i] = uint32(i)
	}
	x := uint64(2463534242)
	for i := len(next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	var mem []float64
	for rep := 0; rep < 3; rep++ {
		p := uint32(0)
		start := time.Now()
		for i := 0; i < 1<<20; i++ {
			p = next[p]
		}
		mem = append(mem, ms(time.Since(start)))
		probeSink += uint64(p)
	}
	next = nil
	debug.FreeOSMemory()
	return median(cpu), median(mem)
}

// cpuTime returns the CPU time of every live thread of process pid
// ("self" for this process), summed from /proc/<pid>/task/*/schedstat.
// With paravirtual steal accounting the scheduler's task clock leaves
// out time the hypervisor gave to other guests, so unlike wall time it
// does not move with their load.
func cpuTime(pid string) (time.Duration, error) {
	dir := "/proc/" + pid + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s of %s", t.Name(), pid)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing schedstat of task %s of %s: %w", t.Name(), pid, err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// cpuSince returns the CPU time process pid spent since an earlier
// cpuTime reading.
func cpuSince(pid string, before time.Duration) (time.Duration, error) {
	now, err := cpuTime(pid)
	if err != nil {
		return 0, err
	}
	if now < before {
		return 0, fmt.Errorf("CPU time of %s went back from %v to %v (a thread exited)", pid, before, now)
	}
	return now - before, nil
}

// stealTicks reads the aggregate cpu line of /proc/stat and returns
// the steal ticks and the total ticks.
func stealTicks() (steal, total uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:9] { // user … steal; guest time is inside user
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}

// resetHWM resets the VmHWM of process pid ("self" for this process)
// to its current resident set, so the next vmHWM read covers only what
// ran in between.
func resetHWM(pid string) error {
	f, err := os.OpenFile("/proc/"+pid+"/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	if _, err := f.WriteString("5"); err != nil {
		f.Close()
		return fmt.Errorf("resetting VmHWM of %s: %w", pid, err)
	}
	return f.Close()
}

// vmHWM returns the peak resident set of process pid ("self" for this
// process) in MiB, from the VmHWM line of /proc/<pid>/status.
func vmHWM(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
