// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed window, checks every op's output, and prints
// each metric by name with its unit, then a diagnostics line, then one
// JSON result line:
//
//	perfbench --workload sim_proc --seed 1 --seconds 25 --trace 0
//
// Workloads (README.md says why each was chosen):
//
//   - sim_proc: the Fig. 5(2) middle cell (processing model) through
//     experiments.Panel and sim.Sweep, one cell per op;
//   - sim_value: the Fig. 5(5) middle cell (value model), likewise;
//   - live_stream: a real one-shard smbsimd on a unix socket, one
//     pre-encoded MMPP stream per op from a closed-loop client.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is a separate
// run on the same inputs that times every layer from outside, around
// calls into its public functions, keeps the spans in memory and
// writes them to the work directory at the end, and reports the
// per-layer metrics. run.sh builds this command and smbsimd, then runs
// it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    int    // 1 for the traced run
	daemon   string // smbsimd binary
	workdir  string // sockets, snapshots and span files
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's checks and metrics.
type report struct {
	diag      *diagnostics
	attempted int
	failed    int
	// metrics are the ones the result line carries; lines render every
	// metric, including breakdowns the result line leaves out.
	metrics map[string]metric
	lines   []string
}

func newReport(d *diagnostics) *report {
	return &report{diag: d, metrics: make(map[string]metric)}
}

// attempt counts one checked output: a timed op, a warm-up, or a
// daemon exit.
func (r *report) attempt() { r.attempted++ }

// fail counts one failed check, keeping the first few causes.
func (r *report) fail(err error) {
	r.failed++
	if len(r.diag.Failures) < 5 {
		r.diag.Failures = append(r.diag.Failures, err.Error())
	}
}

// add records a metric of the result line.
func (r *report) add(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit)
}

// note records a metric for the printed lines only.
func (r *report) note(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("metric %s %s = %.6g %s", r.diag.Workload, name, v, unit))
}

// opSample is one op's cost: its wall time, the CPU time of the
// process doing the work, and that process's peak RSS during the op.
type opSample struct {
	wall, cpu time.Duration
	rssMB     float64
}

// measureOp resets pid's VmHWM, runs op, and samples its cost.
func measureOp(pid string, op func()) (opSample, error) {
	if err := resetHWM(pid); err != nil {
		return opSample{}, err
	}
	c0, err := cpuTime(pid)
	if err != nil {
		return opSample{}, err
	}
	t0 := time.Now()
	op()
	s := opSample{wall: time.Since(t0)}
	if s.cpu, err = cpuSince(pid, c0); err != nil {
		return opSample{}, err
	}
	s.rssMB, err = vmHWM(pid)
	return s, err
}

// window is what an untraced run measured: its set-ups and its timed
// window of ops.
type window struct {
	setupCPU, setupWall []float64 // seconds, one per set-up
	pkts                int64     // trace packets of the window's ops
	wall, cpu           time.Duration
	ops                 []opSample
	heapBytes           uint64 // heap allocated over the window
}

// endToEnd records the end-to-end metrics of an untraced run. The
// result line carries CPU-time figures, which do not move with the
// steal time of a shared host; the wall-clock figures are printed
// beside them.
func (r *report) endToEnd(w window) error {
	cpu := make([]float64, len(w.ops))
	wall := make([]float64, len(w.ops))
	rss := make([]float64, len(w.ops))
	for i, o := range w.ops {
		cpu[i], wall[i], rss[i] = ms(o.cpu), ms(o.wall), o.rssMB
	}
	pct, cpuTail, beyond, ok := tail(cpu)
	if !ok {
		return fmt.Errorf("the window held %d ops, too few to leave %d beyond the median", len(w.ops), minBeyond)
	}
	_, wallTail, _, _ := tail(wall)
	perCPU, err := perUnit(float64(w.pkts)*float64(time.Second), int64(w.cpu))
	if err != nil {
		return err
	}
	heap, err := perUnit(float64(w.heapBytes), w.pkts)
	if err != nil {
		return err
	}
	r.diag.Ops, r.diag.TailPercentile, r.diag.TailBeyond = len(w.ops), pct, beyond
	r.add("setup_s", median(w.setupCPU), "s")
	r.add("pkts_per_cpu_s", perCPU, "pkt/cpu-s")
	r.add("op_cpu_ms_p50", median(cpu), "ms")
	r.add("op_cpu_ms_tail", cpuTail, "ms")
	r.add("peak_rss_mb", median(rss), "MiB")
	r.add("heap_bytes_per_pkt", heap, "B/pkt")
	r.note("setup_wall_s", median(w.setupWall), "s")
	r.note("pkts_per_s", float64(w.pkts)/w.wall.Seconds(), "pkt/s")
	r.note("op_ms_p50", median(wall), "ms")
	r.note("op_ms_tail", wallTail, "ms")
	r.lines = append(r.lines, fmt.Sprintf("metric %s op_cpu_ms_tail and op_ms_tail are p%g of %d ops, %d beyond it",
		r.diag.Workload, pct, len(w.ops), beyond))
	return nil
}

// run executes one invocation and writes its lines to out.
func run(c config, out io.Writer) (*result, error) {
	w, ok := workloads[c.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", c.workload, names)
	}
	if c.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if c.trace != 0 && c.trace != 1 {
		return nil, fmt.Errorf("--trace %d, want 0 or 1", c.trace)
	}
	diag := newDiagnostics(c.workload, c.seed, c.trace == 1)
	rep := newReport(diag)
	diag.HostProbeBeforeMs, diag.MemProbeBeforeMs = hostProbe()
	steal0, total0, err := stealTicks()
	if err != nil {
		return nil, err
	}
	switch {
	case c.trace == 1:
		err = runProfile(w, c, rep)
	case w.live:
		err = runLiveWorkload(w, c, rep)
	default:
		err = runSimWorkload(w, c, rep)
	}
	if err != nil {
		return nil, err
	}
	steal1, total1, err := stealTicks()
	if err != nil {
		return nil, err
	}
	if total1 > total0 {
		diag.StealShare = float64(steal1-steal0) / float64(total1-total0)
	}
	diag.HostProbeAfterMs, diag.MemProbeAfterMs = hostProbe()
	if rep.attempted > 0 {
		diag.FailedRatio = float64(rep.failed) / float64(rep.attempted)
	}
	rep.note("failed_ratio", diag.FailedRatio, "ratio")

	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	dj, err := json.Marshal(map[string]*diagnostics{"diagnostics": diag})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(out, string(dj))
	return &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

func main() {
	var c config
	var seconds int
	flag.StringVar(&c.workload, "workload", "", "workload: sim_proc, sim_value or live_stream")
	flag.Int64Var(&c.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&c.trace, "trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	flag.StringVar(&c.daemon, "daemon", filepath.Join(".bench_build", "smbsimd"), "smbsimd binary")
	flag.StringVar(&c.workdir, "workdir", filepath.Join(".bench_build", "perfbench"), "directory for sockets, snapshots and spans")
	flag.Parse()
	c.seconds = time.Duration(seconds) * time.Second

	res, err := run(c, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
