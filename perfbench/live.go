package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smbm/internal/core"
	"smbm/internal/obs"
	"smbm/internal/shard"
	"smbm/internal/sim"
	"smbm/internal/traffic"
)

// daemonWait bounds every wait on the daemon: start-up, readiness, one
// stream's answer, and exit after SIGTERM.
const daemonWait = 30 * time.Second

// daemon is one smbsimd child process.
type daemon struct {
	cmd  *exec.Cmd
	http string // admin address, host:port
	sock string // stream socket path, relative to the working directory
	// stdoutDone closes once the daemon's stdout reaches EOF.
	stdoutDone chan struct{}
	waited     bool
}

// startDaemon execs smbsimd with cfg and one shard, reads its admin
// address from stdout, and returns once GET /healthz answers "ok".
// Readiness is never probed on the stream socket: the daemon's accept
// loop is serial and would take a probe connection for a stream.
func startDaemon(bin, workdir string, id int, cfg core.Config) (*daemon, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	// A relative path keeps the socket name within the kernel's
	// 108-byte limit however deep the checkout is.
	sock := filepath.Join(workdir, fmt.Sprintf("d%d.sock", id))
	args := append(daemonArgs(cfg, daemonPolicy),
		"-listen", "unix:"+sock,
		"-http", "127.0.0.1:0",
		"-snapshot", filepath.Join(workdir, fmt.Sprintf("d%d.snapshot.json", id)))
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting smbsimd: %w", err)
	}
	d := &daemon{cmd: cmd, sock: sock, stdoutDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stdoutDone)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "smbsimd: http listening on "); ok {
				select {
				case addr <- a:
				default: // only the first announcement matters
				}
			}
		}
	}()
	select {
	case d.http = <-addr:
	case <-d.stdoutDone:
		d.kill()
		return nil, errors.New("smbsimd exited before announcing its admin address")
	case <-time.After(daemonWait):
		d.kill()
		return nil, errors.New("smbsimd did not announce its admin address")
	}
	client := http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(daemonWait); ; {
		resp, err := client.Get("http://" + d.http + "/healthz")
		if err == nil {
			var body bytes.Buffer
			_, _ = body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(body.String()) == "ok" {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("smbsimd /healthz not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// pid is the daemon's process id as /proc spells it.
func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop ends the daemon with SIGTERM and returns an error unless it
// exits 0 within daemonWait.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling smbsimd: %w", err)
	}
	select {
	case <-d.stdoutDone:
	case <-time.After(daemonWait):
		d.kill()
		return errors.New("smbsimd did not exit after SIGTERM")
	}
	d.waited = true
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("smbsimd exit after SIGTERM: %w", err)
	}
	return nil
}

// kill reaps the daemon unconditionally; a no-op once it was waited.
func (d *daemon) kill() {
	if d.waited {
		return
	}
	d.waited = true
	_ = d.cmd.Process.Kill() // it may already have exited
	<-d.stdoutDone
	_ = d.cmd.Wait() // the exit status of a killed daemon is moot
}

// heapAlloc reads the daemon's cumulative heap allocation from its
// expvar memstats.
func (d *daemon) heapAlloc() (uint64, error) {
	client := http.Client{Timeout: daemonWait}
	resp, err := client.Get("http://" + d.http + "/debug/vars")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct{ TotalAlloc uint64 } `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return 0, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return vars.Memstats.TotalAlloc, nil
}

// streamAnswer is smbsimd's JSON answer to one stream.
type streamAnswer struct {
	RequestedSlots int            `json:"requested_slots"`
	ProcessedSlots int            `json:"processed_slots"`
	Aborted        bool           `json:"aborted"`
	Error          string         `json:"error"`
	Results        []shard.Result `json:"results"`
}

// streamTiming is one stream's client-side clock readings.
type streamTiming struct {
	start, lastByte, answered time.Time
}

// stream sends one pre-encoded stream over a fresh connection, half
// closes it, and parses the answer.
func (d *daemon) stream(enc []byte) (streamAnswer, streamTiming, error) {
	var ans streamAnswer
	var tm streamTiming
	tm.start = time.Now()
	conn, err := net.Dial("unix", d.sock)
	if err != nil {
		return ans, tm, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(daemonWait)); err != nil {
		return ans, tm, err
	}
	if _, err := conn.Write(enc); err != nil {
		return ans, tm, fmt.Errorf("sending stream: %w", err)
	}
	if err := conn.(*net.UnixConn).CloseWrite(); err != nil {
		return ans, tm, err
	}
	tm.lastByte = time.Now()
	if err := json.NewDecoder(conn).Decode(&ans); err != nil {
		return ans, tm, fmt.Errorf("reading answer: %w", err)
	}
	tm.answered = time.Now()
	return ans, tm, nil
}

// liveInput is one pre-encoded stream and its single-threaded oracle.
type liveInput struct {
	enc   []byte
	slots int
	pkts  int64
	want  oracle
}

// oracle is the single-threaded replay of a trace through the shard's
// configuration with counters-only recording: what a one-shard
// runtime must reproduce bit for bit.
type oracle struct {
	stats  core.Stats
	ports  []core.PortCounters
	counts []uint64
}

func newOracle(cfg core.Config, factory func() core.Policy, tr traffic.Trace) (oracle, error) {
	scfg := shard.ShardConfig(cfg, shard.PartitionPorts(cfg.Ports, 1), 0)
	sw, err := core.New(scfg, factory())
	if err != nil {
		return oracle{}, err
	}
	rec := obs.NewRecorder(scfg.Ports, 0)
	sw.SetRecorder(rec)
	st, err := sim.RunTrace(sw, tr, 0)
	if err != nil {
		return oracle{}, err
	}
	return oracle{stats: st, ports: sw.PortCounters(), counts: rec.SaveCounts(nil)}, nil
}

// check requires one shard result to match the oracle.
func (o oracle) check(r shard.Result) error {
	if diff := shard.DiffResult(r, o.stats, o.ports, o.counts); diff != "" {
		return errors.New(diff)
	}
	return nil
}

// checkAnswer requires a complete, unaborted stream whose one shard
// matches the oracle.
func checkAnswer(ans streamAnswer, slots int, want oracle) error {
	switch {
	case ans.Aborted || ans.Error != "":
		return fmt.Errorf("stream aborted: %q", ans.Error)
	case ans.RequestedSlots != slots || ans.ProcessedSlots != slots:
		return fmt.Errorf("stream processed %d of %d slots, sent %d", ans.ProcessedSlots, ans.RequestedSlots, slots)
	case len(ans.Results) != 1:
		return fmt.Errorf("answer has %d shard results, want 1", len(ans.Results))
	}
	return want.check(ans.Results[0])
}

// encode renders a trace in the binary stream framing.
func encode(tr traffic.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// liveInputs materializes, encodes and replays the oracle of n
// distinct streams: harness preparation, outside set-up and window.
func liveInputs(sw *sim.Sweep, seed int64, n int) ([]liveInput, error) {
	ins := make([]liveInput, n)
	for i := range ins {
		inst, err := sw.Build(sw.Xs[0], opSeed(seed, i))
		if err != nil {
			return nil, err
		}
		factory, err := policyFactory(inst.Cfg.Model, daemonPolicy)
		if err != nil {
			return nil, err
		}
		tr, err := materialize(inst.Provider)
		if err != nil {
			return nil, err
		}
		in := &ins[i]
		if in.enc, err = encode(tr); err != nil {
			return nil, err
		}
		in.slots, in.pkts = len(tr), int64(tr.Packets())
		if in.want, err = newOracle(inst.Cfg, factory, tr); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

// liveOp is one timed stream.
type liveOp struct {
	in  *liveInput
	ans streamAnswer
	err error
}

// runLiveWorkload is the untraced run of live_stream. Set-up is daemon
// exec through /healthz through one answered warm-up stream; half the
// set-ups run before the window (the last one's daemon serves it) and
// half after it, and every daemon ends with SIGTERM. One client
// streams in a closed loop over one connection at a time.
func runLiveWorkload(w workload, c config, rep *report) error {
	sw, err := w.newSweep()
	if err != nil {
		return err
	}
	ins, err := liveInputs(sw, c.seed, liveTraces)
	if err != nil {
		return err
	}
	cfg := liveConfig()

	var win window
	// A set-up's CPU time is the daemon's, from exec to the answered
	// warm-up; the client's readiness polling is harness work.
	setUp := func(k int) (*daemon, error) {
		start := time.Now()
		d, err := startDaemon(c.daemon, c.workdir, k, cfg)
		if err != nil {
			return nil, err
		}
		ans, _, err := d.stream(ins[0].enc)
		win.setupWall = append(win.setupWall, time.Since(start).Seconds())
		cpu, cerr := cpuTime(d.pid())
		if cerr != nil {
			d.kill()
			return nil, cerr
		}
		win.setupCPU = append(win.setupCPU, cpu.Seconds())
		rep.attempt()
		if err == nil {
			err = checkAnswer(ans, ins[0].slots, ins[0].want)
		}
		if err != nil {
			rep.fail(fmt.Errorf("warm-up stream: %w", err))
		}
		return d, nil
	}
	stop := func(d *daemon) {
		rep.attempt()
		if err := d.stop(); err != nil {
			rep.fail(err)
		}
	}
	var d *daemon
	for k := 0; k < setupReps/2; k++ {
		if d != nil {
			stop(d)
		}
		if d, err = setUp(k); err != nil {
			return err
		}
	}
	defer d.kill()

	heap0, err := d.heapAlloc()
	if err != nil {
		return err
	}
	cpu0, err := cpuTime(d.pid())
	if err != nil {
		return err
	}
	var ops []liveOp
	start := time.Now()
	deadline := start.Add(c.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		op := liveOp{in: &ins[i%len(ins)]}
		s, err := measureOp(d.pid(), func() { op.ans, _, op.err = d.stream(op.in.enc) })
		if err != nil {
			return err
		}
		ops = append(ops, op)
		win.ops = append(win.ops, s)
		win.pkts += op.in.pkts
	}
	win.wall = time.Since(start)
	if win.cpu, err = cpuSince(d.pid(), cpu0); err != nil {
		return err
	}
	heap1, err := d.heapAlloc()
	if err != nil {
		return err
	}
	win.heapBytes = heap1 - heap0
	stop(d)
	for k := setupReps / 2; k < setupReps; k++ {
		nd, err := setUp(k)
		if err != nil {
			return err
		}
		stop(nd)
	}

	for _, o := range ops {
		rep.attempt()
		if o.err == nil {
			o.err = checkAnswer(o.ans, o.in.slots, o.in.want)
		}
		if o.err != nil {
			rep.fail(o.err)
		}
	}
	return rep.endToEnd(win)
}
