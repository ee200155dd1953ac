package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinyConfig shrinks a workload so a window is a fixed, small number of
// operations: counts then depend only on the seed.
func tinyConfig(t *testing.T, workload string, seed int64) config {
	t.Helper()
	c, err := defaultConfig(workload, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.n = 80
	c.setups = 1
	c.batch = 2000
	c.probes = 20
	c.flows = 150
	c.window = budget{ops: map[string]int{"forward": 20000, "congestion": 3, "react": 3, "churn": 8, "flowsim": 2}[workload]}
	c.warm = budget{ops: 1}
	return c
}

// tinyWindow sets up a workload and runs its measured window.
func tinyWindow(t *testing.T, c config) *sample {
	t.Helper()
	w := workloads[c.workload](c)
	if err := w.setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	s, err := w.window(c.window, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkloadsDeterministicAndCorrect(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			a := tinyWindow(t, tinyConfig(t, name, 1))
			b := tinyWindow(t, tinyConfig(t, name, 1))
			c := tinyWindow(t, tinyConfig(t, name, 2))
			for _, s := range []*sample{a, b, c} {
				if len(s.violations) > 0 {
					t.Fatalf("correctness gate failed: %v", s.violations)
				}
				if s.attempted == 0 || s.ops == 0 || len(s.lat) == 0 {
					t.Fatalf("window did no work: attempted %d, ops %d, latencies %d", s.attempted, s.ops, len(s.lat))
				}
			}
			if !slices.Equal(a.fingerprint, b.fingerprint) {
				t.Errorf("same seed, different counts: %v vs %v", a.fingerprint, b.fingerprint)
			}
			if slices.Equal(a.fingerprint, c.fingerprint) {
				t.Errorf("seeds 1 and 2 gave identical counts %v", a.fingerprint)
			}
		})
	}
}

// TestCongestionGateCatchesDisabledTagCheck is the negative control: with
// Algorithm 1's valley-free check turned off, deflections climb back up
// the hierarchy and the flight-recorder audit must fail the run.
func TestCongestionGateCatchesDisabledTagCheck(t *testing.T) {
	c := tinyConfig(t, "congestion", 1)
	c.share = 0.2
	if s := tinyWindow(t, c); len(s.violations) > 0 {
		t.Fatalf("control run with the tag check on failed: %v", s.violations)
	}
	c.disableTagCheck = true
	s := tinyWindow(t, c)
	if len(s.violations) == 0 {
		t.Fatal("congestion gate passed with the valley-free tag check disabled")
	}
	if !strings.Contains(strings.Join(s.violations, "\n"), "invariant violations") {
		t.Errorf("gate failed, but not on the flight recorder's audit: %v", s.violations)
	}
}

// TestReactGateCatchesStaleFIB is react's negative control: loads that
// change after the last Deployment.Refresh leave alternatives in the FIBs
// that the greedy rule no longer picks, and the gate must say so.
func TestReactGateCatchesStaleFIB(t *testing.T) {
	c := tinyConfig(t, "react", 1)
	w := &react{onNetwork{c: c}}
	if err := w.setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	s, err := w.window(c.window, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.violations) > 0 {
		t.Fatalf("control run failed: %v", s.violations)
	}
	if err := newEpochs(w.net, 0.5, 99).setLoads(); err != nil {
		t.Fatal(err)
	}
	stale := newSample()
	checkPublished(w.net, stale)
	if len(stale.violations) == 0 {
		t.Fatal("react gate passed on FIBs published before the loads changed")
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, pct int
		value  float64 // 0: too few samples
	}{
		{40, 75, 30},  // exactly 10 samples beyond the 30th
		{39, 75, 0},   // 9 beyond
		{100, 75, 75}, // more samples, same percentile
		{1000, 99, 990},
		{999, 99, 0},
		{100000, 99, 99000},
		{5, 50, 0},
	} {
		v, err := tail(seq(tc.n), tc.pct)
		if tc.value == 0 {
			if err == nil {
				t.Errorf("tail p%d of 1..%d = %v, want an error", tc.pct, tc.n, v)
			}
		} else if err != nil || v != tc.value {
			t.Errorf("tail p%d of 1..%d = %v, %v; want %v", tc.pct, tc.n, v, err, tc.value)
		}
	}
	for _, pct := range []int{50, 75, 90, 99} {
		if _, err := tail(seq(minSamples(pct)), pct); err != nil {
			t.Errorf("minSamples(%d) = %d is too few: %v", pct, minSamples(pct), err)
		}
		if _, err := tail(seq(minSamples(pct)-1), pct); err == nil {
			t.Errorf("minSamples(%d) = %d is not the fewest", pct, minSamples(pct))
		}
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "forward", "--trace", "2"},
		{"--workload", "forward", "--seconds", "0"},
		{"--workload", "forward", "--part", "1", "--trace", "1"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q; want non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestResultLine(t *testing.T) {
	r := &report{attempted: 10, failed: 1, metrics: map[string]float64{"setup_s": 1.5}}
	line, err := r.json(false)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct   *bool
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct == nil || !*got.Correct || *got.Attempted != 10 || *got.Failed != 1 {
		t.Fatalf("result line %s", line)
	}
	for _, d := range endToEnd {
		if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("metric %s missing or with the wrong unit in %s", d.name, line)
		}
	}
	if len(got.Metrics) != len(endToEnd) || got.Metrics["setup_s"].Value != 1.5 {
		t.Errorf("result line %s", line)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads the program reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	var names, listed []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range workloadNames() {
		if heldOut[name] == "" {
			listed = append(listed, name)
		}
	}
	slices.Sort(names)
	if !slices.Equal(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, program lists %v", names, listed)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, program %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}
