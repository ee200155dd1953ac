// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it builds the inputs, drives the system in-process
// through the public functions of topo, bgp, core, dataplane, traffic and
// netsim from a single driver goroutine, checks the outputs, and prints
// every metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": v, "unit": u}}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics, from spans the benchmark records
// around its calls into each layer, and writes the span log as JSONL. The
// process exits 1 when a correctness gate fails. See README.md for the
// workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 12, "length of the timed window in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced measurement and reports per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory the traced run writes its span log to (none when empty)")
	partIdx := fs.Int("part", 0, "measure as process `n` of an untraced run and print the raw samples as JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || *partIdx < 0 || (*partIdx > 0 && *traced != 0) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive, -trace 0 or 1, and -part untraced and not negative")
		return 2
	}
	c, err := defaultConfig(*workload, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	c.trace = *traced == 1
	c.traceDir = *traceDir

	if *partIdx > 0 {
		c.seed = subSeed(c.seed, 'P', int64(*partIdx))
		c.window.minOps = (c.window.minOps + measureProcs - 1) / measureProcs
		var p *part
		if _, p, err = measure(c, workloads[c.workload](c), nil); err == nil {
			err = json.NewEncoder(stdout).Encode(p)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	rep, err := execute(c, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, "#", line)
	}
	for _, v := range rep.violations {
		fmt.Fprintln(stderr, "perfbench: check failed:", v)
	}
	line, err := rep.json(c.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if len(rep.violations) > 0 {
		return 1
	}
	return 0
}

// config fixes one run. The benchmark's scale lives here, not in flags:
// the command line varies only workload, seed, window and tracing, and the
// tests shrink the scale.
type config struct {
	workload string
	seed     int64
	window   budget
	warm     budget
	tailPct  int // the percentile op_tail_ms reports
	setups   int // timed set-up rounds per measuring process; setup_s is the median round
	// setupBatch is how many set-ups one round runs back to back; a round
	// reports their mean, so a set-up much shorter than a timer tick is
	// still timed over tens of milliseconds.
	setupBatch int
	trace      bool
	traceDir   string

	n int // ASes in the synthetic topology

	share float64 // react, congestion: share of link directions loaded above the threshold
	batch int     // congestion: packets forwarded per epoch
	// disableTagCheck turns off Algorithm 1's valley-free check on every
	// router: the negative control the tests use to show the congestion
	// gate is not vacuous.
	disableTagCheck bool

	probes int // churn: probe packets per link event
	flows  int // flowsim: flows per simulated experiment
}

func defaultConfig(workload string, seed int64, seconds float64) (config, error) {
	if _, ok := workloads[workload]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	c := config{
		workload:   workload,
		seed:       seed,
		window:     budget{seconds: seconds},
		warm:       budget{seconds: min(2, seconds/5)},
		tailPct:    75,
		setups:     2,
		setupBatch: 1,
		n:          1000,
		share:      0.05,
		batch:      50000,
		probes:     100,
		flows:      1000,
	}
	c.window.minOps = minSamples(c.tailPct)
	switch workload {
	case "forward":
		// Every latEvery-th packet is timed on its own; a window holds
		// hundreds of thousands of them.
		c.tailPct = 99
		c.window.minOps = minSamples(c.tailPct) * latEvery
	case "flowsim":
		// Its set-up (topology and stream) takes about a millisecond.
		c.setups, c.setupBatch = 3, 50
	}
	return c, nil
}

// runner is one workload. setup builds the inputs from the seed, replacing
// any earlier ones. window drives the system until the budget is spent and
// then, off the clock, checks the outputs; phase 0 is the warm-up, whose
// post-window checks are skipped, and phase 1 the measured window (traced or
// not, with the same inputs).
type runner interface {
	setup(tr *tracer, parent int32) error
	window(b budget, phase int64, tr *tracer) (*sample, error)
	// describe gives the workload's throughput and latency their usual
	// names (pps, react_*, converge_*, sim_flows_per_s) and states the
	// input's size.
	describe() (rate, latency, size string)
}

var workloads = map[string]func(config) runner{
	"forward":    func(c config) runner { return &forward{onNetwork{c: c}} },
	"congestion": func(c config) runner { return &congestion{react: react{onNetwork{c: c}}} },
	"react":      func(c config) runner { return &react{onNetwork{c: c}} },
	"churn":      func(c config) runner { return &churn{onNetwork{c: c}} },
	"flowsim":    func(c config) runner { return &flowsim{c: c} },
}

// heldOut names the workloads BENCHMARK.json does not list, and why. They
// run by hand with the same flags.
var heldOut = map[string]string{
	"congestion": "its flight-recorder gate fails on about one seed in ten: two ASes deflecting at once " +
		"can send a packet back into an AS it left (README.md, \"Known defect the congestion gate finds\"); " +
		"and about 2% of its packets are tag-dropped by design, so its operations do not all succeed",
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sample is what one window measured.
type sample struct {
	ops  int64         // throughput units completed (packets, events, flows)
	busy time.Duration // time spent inside the timed operations
	lat  []float64     // latency of each timed operation, ms
	// rates holds the throughput of each sub-window (an epoch, an event,
	// an experiment, or about a second of packets). ops_per_s is their
	// median, so a few seconds of a slow host do not move it.
	rates []float64
	held  float64 // live heap in MiB when the timed loop ended, before the checks

	attempted, failed int64
	pkts              packetTally
	// fingerprint holds counts that depend only on the inputs; the tests
	// require them to repeat for a seed and to differ across seeds.
	fingerprint []int64
	layer       map[string]float64 // per-layer metrics the workload measures itself
	violations  []string
}

func newSample() *sample { return &sample{layer: make(map[string]float64)} }

func (s *sample) violate(format string, args ...any) {
	s.violations = append(s.violations, fmt.Sprintf(format, args...))
}

// rate records the throughput of one sub-window.
func (s *sample) rate(ops int64, d time.Duration) {
	if d > 0 {
		s.rates = append(s.rates, float64(ops)/d.Seconds())
	}
}

// opsPerS is the median sub-window throughput; a window too short for a
// whole sub-window (the tests' op budgets) reports ops over busy time.
func (s *sample) opsPerS() float64 {
	if len(s.rates) == 0 {
		return ratio(float64(s.ops), s.busy.Seconds())
	}
	return median(append([]float64(nil), s.rates...))
}

// report is a finished run.
type report struct {
	attempted, failed int64
	violations        []string
	metrics           map[string]float64
	notes             []string
}

// measureProcs is how many processes an untraced run measures in, one
// after another, each for its share of the window. On the 2-vCPU VM this
// was measured on, a process keeps one speed for its whole life, and that
// speed differs between processes: two measuring react side by side, one
// per vCPU, read 273 and 355 ms, while fresh set-ups inside one process
// stayed within 6%. Pooling the samples of four processes averages that
// out.
const measureProcs = 4

// part is what one measuring process reports to the run that started it:
// its raw samples, which the run pools.
type part struct {
	Rate, Latency, Size string // the workload's describe()
	SetupsS             []float64
	LatMs               []float64
	Rates               []float64
	Ops                 int64
	BusyS               float64
	HeldMiB             float64
	Attempted, Failed   int64
	Violations          []string
}

// measure runs the untraced part of a run in this process: timed set-up
// rounds (the last set-up traced when tr is not nil), an untimed warm-up,
// a forced GC, the timed window, and its correctness gates. The window's
// go.* metrics go into the sample's layer metrics.
func measure(c config, w runner, tr *tracer) (*sample, *part, error) {
	setups := make([]float64, 0, c.setups)
	for i := range c.setups {
		runtime.GC()
		start := time.Now()
		for j := range c.setupBatch {
			var str *tracer // only the last set-up is traced
			if i == c.setups-1 && j == c.setupBatch-1 {
				str = tr
			}
			root := str.start("bench.setup", -1)
			err := w.setup(str, root)
			str.end(root, 1)
			if err != nil {
				return nil, nil, fmt.Errorf("set-up: %w", err)
			}
		}
		setups = append(setups, time.Since(start).Seconds()/float64(c.setupBatch))
	}

	if _, err := w.window(c.warm, 0, nil); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	held := heldMiB() // also the forced GC before the timed window
	gc0 := readGC()
	s, err := w.window(c.window, 1, nil)
	if err != nil {
		return nil, nil, err
	}
	gcDelta(gc0, readGC(), s.layer)

	p := &part{
		SetupsS:    setups,
		LatMs:      s.lat,
		Rates:      s.rates,
		Ops:        s.ops,
		BusyS:      s.busy.Seconds(),
		HeldMiB:    max(held, s.held),
		Attempted:  s.attempted,
		Failed:     s.failed,
		Violations: s.violations,
	}
	p.Rate, p.Latency, p.Size = w.describe()
	return s, p, nil
}

// measureInProcesses runs the measuring processes of an untraced run one
// after another, each with its share of the window and its own seed
// derived from the run's, and collects their samples. Each process's
// standard error passes through.
func measureInProcesses(c config, stderr io.Writer) ([]*part, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	seconds := strconv.FormatFloat(c.window.seconds/measureProcs, 'g', -1, 64)
	parts := make([]*part, 0, measureProcs)
	for i := 1; i <= measureProcs; i++ {
		cmd := exec.Command(exe, "-workload", c.workload, "-seed", strconv.FormatInt(c.seed, 10),
			"-seconds", seconds, "-trace", "0", "-part", strconv.Itoa(i))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		p := new(part)
		if err := json.Unmarshal(out, p); err != nil {
			return nil, fmt.Errorf("measuring process %d: %w", i, err)
		}
		parts = append(parts, p)
	}
	return parts, nil
}

// summarize pools the samples of a run's measuring processes into its
// end-to-end metrics and notes.
func summarize(c config, parts []*part) (*report, error) {
	rep := &report{metrics: make(map[string]float64)}
	var setups, lat, rates []float64
	var ops int64
	var busy, held float64
	for _, p := range parts {
		setups = append(setups, p.SetupsS...)
		lat = append(lat, p.LatMs...)
		rates = append(rates, p.Rates...)
		ops += p.Ops
		busy += p.BusyS
		held = max(held, p.HeldMiB)
		rep.attempted += p.Attempted
		rep.failed += p.Failed
		rep.violations = append(rep.violations, p.Violations...)
	}
	opsPerS := ratio(float64(ops), busy) // a window too short for a whole sub-window
	if len(rates) > 0 {
		opsPerS = median(rates)
	}
	p50 := median(append([]float64(nil), lat...))
	tailV, err := tail(lat, c.tailPct)
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	setupS := median(setups) // sorts setups
	m := rep.metrics
	m["setup_s"] = setupS
	m["mem_mb"] = held
	m["ops_per_s"] = opsPerS
	m["op_p50_ms"] = p50
	m["op_tail_ms"] = tailV

	first := parts[0]
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload=%s seed=%d %s gomaxprocs=%d window_s=%g processes=%d",
			c.workload, c.seed, first.Size, runtime.GOMAXPROCS(0), c.window.seconds, len(parts)),
		fmt.Sprintf("%s=%.1f %s_p50_ms=%.4f %s_tail_ms=%.4f (p%d of %d) fail_frac=%.5f setup_s=%.4f (%.4f..%.4f over %d rounds) mem_mb=%.1f",
			first.Rate, opsPerS, first.Latency, p50, first.Latency, tailV, c.tailPct, len(lat),
			ratio(float64(rep.failed), float64(rep.attempted)), setupS, setups[0], setups[len(setups)-1], len(setups), held))
	if why := heldOut[c.workload]; why != "" {
		rep.notes = append(rep.notes, "held out of BENCHMARK.json: "+why)
	}
	return rep, nil
}

// execute runs one workload. An untraced run measures in measureProcs
// processes and pools their samples. A traced run measures in this
// process, then runs a second, traced window on the same inputs.
func execute(c config, stderr io.Writer) (*report, error) {
	if !c.trace {
		parts, err := measureInProcesses(c, stderr)
		if err != nil {
			return nil, err
		}
		return summarize(c, parts)
	}

	w := workloads[c.workload](c)
	tr := newTracer()
	s, p, err := measure(c, w, tr)
	if err != nil {
		return nil, err
	}
	rep, err := summarize(c, []*part{p})
	if err != nil {
		return nil, err
	}
	p50 := rep.metrics["op_p50_ms"]

	runtime.GC()
	ts, err := w.window(c.window, 1, tr)
	if err != nil {
		return nil, fmt.Errorf("traced window: %w", err)
	}
	rep.attempted += ts.attempted
	rep.failed += ts.failed
	rep.violations = append(rep.violations, ts.violations...)

	m := rep.metrics
	for k, v := range s.layer {
		m[k] = v
	}
	for k, v := range ts.layer {
		if _, ok := s.layer[k]; !ok {
			m[k] = v // measured only in the traced window
		}
	}
	s.pkts.layers(m)
	spanLayers(tr, ts, m)
	m["bench.fail_frac"] = ratio(float64(s.failed), float64(s.attempted))
	m["bench.tail_pct"] = float64(c.tailPct)
	m["trace.overhead_ops_frac"] = ratio(s.opsPerS()-ts.opsPerS(), s.opsPerS())
	m["trace.overhead_p50_frac"] = ratio(median(ts.lat)-p50, p50)
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.shed"] = float64(tr.shed)
	rep.notes = append(rep.notes, fmt.Sprintf("traced window: %s=%.1f %s_p50_ms=%.4f spans=%d",
		p.Rate, ts.opsPerS(), p.Latency, median(ts.lat), len(tr.spans)))

	if c.traceDir != "" {
		if err := os.MkdirAll(c.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(c.traceDir, fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "span log: "+path)
	}
	return rep, nil
}

// spanLayers derives the per-layer timings from the traced run's spans:
// mean durations per call and each layer's self time.
func spanLayers(tr *tracer, ts *sample, m map[string]float64) {
	agg := tr.aggregate()
	perCall := func(name string, unit time.Duration) float64 {
		a := agg[name]
		return ratio(float64(a.ns), float64(a.calls)) / float64(unit)
	}
	perSpan := func(name string, unit time.Duration) float64 {
		a := agg[name]
		return ratio(float64(a.ns), float64(a.count)) / float64(unit)
	}
	m["dataplane.send_ns"] = perCall("dataplane.send", time.Nanosecond)
	m["dataplane.ns_per_hop"] = ratio(float64(agg["dataplane.send"].ns), float64(ts.pkts.hops))
	m["traffic.next_ns"] = perCall("traffic.next", time.Nanosecond)
	m["core.refresh_ms"] = perSpan("core.refresh", time.Millisecond)
	// Churn runs Daemon.RefreshAll itself, one span each; react and
	// congestion call Deployment.Refresh, whose span covers one epoch of
	// every daemon.
	if agg["core.daemon_epoch"].count > 0 {
		m["core.daemon_epoch_us"] = perSpan("core.daemon_epoch", time.Microsecond)
	} else {
		m["core.daemon_epoch_us"] = perCall("core.refresh", time.Microsecond)
	}
	m["core.install_ms"] = perSpan("core.install", time.Millisecond)
	m["core.deploy_build_ms"] = perSpan("core.deploy_build", time.Millisecond)
	m["bgp.table_build_ms"] = perSpan("bgp.table_build", time.Millisecond)
	m["bgp.recompute_ms"] = perSpan("bgp.recompute", time.Millisecond)
	m["topo.generate_ms"] = perSpan("topo.generate", time.Millisecond)
	m["netsim.run_s"] = perSpan("netsim.run", time.Second)
	self := tr.selfTimes()
	for _, layer := range layerNames {
		m[layer+".self_ms"] = float64(self[layer]) / 1e6
	}
}

// json renders the result line: the end-to-end metrics of an untraced run
// or the per-layer metrics of a traced one, each with its unit. Metrics
// the workload does not exercise read 0.
func (r *report) json(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: r.metrics[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}
