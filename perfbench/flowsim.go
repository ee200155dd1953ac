package main

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// flowsim runs whole flow-level experiments with netsim.RunStream: MIFO
// policy, full deployment, uniform traffic of 10 MB flows at the
// experiments' auto-scaled arrival rate. Each experiment includes the
// simulator's own route precompute.
type flowsim struct {
	c    config
	g    *topo.Graph
	dsts []int
	uni  traffic.UniformConfig
}

func (w *flowsim) setup(tr *tracer, parent int32) error {
	sp := tr.start("topo.generate", parent)
	g, err := topo.Generate(topo.GenConfig{N: w.c.n, Seed: topoSeed})
	tr.end(sp, 1)
	if err != nil {
		return fmt.Errorf("topology: %w", err)
	}
	w.g = g
	w.dsts = make([]int, g.N())
	for i := range w.dsts {
		w.dsts[i] = i
	}
	w.uni = traffic.UniformConfig{N: g.N(), Flows: w.c.flows, ArrivalRate: arrivalRate(g.N()), SizeBits: flowBits}
	// Validate the stream configuration once; each experiment draws its
	// own stream from it.
	_, err = traffic.NewUniformStream(w.uni)
	return err
}

func (w *flowsim) describe() (string, string, string) {
	return "sim_flows_per_s", "experiment", fmt.Sprintf("ases=%d flows_per_experiment=%d arrival_rate=%.1f", w.g.N(), w.c.flows, w.uni.ArrivalRate)
}

// tracedStream hands flows through to the simulator, recording each Next
// call as a traffic.next span under the running experiment.
type tracedStream struct {
	src    traffic.Stream
	tr     *tracer
	parent int32
}

func (t *tracedStream) Next() (traffic.Flow, bool) {
	sp := t.tr.start("traffic.next", t.parent)
	f, ok := t.src.Next()
	t.tr.end(sp, 1)
	return f, ok
}

// heldProbe hands flows through to the simulator and, every `every` flows,
// records the memory the running simulation holds (heldMiB): RunStream's
// routes and active flows live only while it runs.
type heldProbe struct {
	src   traffic.Stream
	every int
	n     int
	peak  float64
}

func (h *heldProbe) Next() (traffic.Flow, bool) {
	if h.n++; h.n%h.every == 0 {
		h.peak = max(h.peak, heldMiB())
	}
	return h.src.Next()
}

// outcome is the part of a StreamResults that must repeat exactly for the
// same inputs.
type outcome struct {
	flows, unroutable, completed, stalled, usedAlt, switches, reroutes, peak int
	offloadedBits, stalledTime, meanMbps                                     float64
}

func outcomeOf(r *netsim.StreamResults) outcome {
	return outcome{r.Flows, r.Unroutable, r.Completed, r.StalledForever, r.UsedAlt, r.Switches, r.Reroutes, r.PeakActive,
		r.OffloadedBits, r.StalledTime, r.MeanThroughputMbps()}
}

// experiment simulates the i-th experiment of a window. A non-nil probe
// wraps its flow stream.
func (w *flowsim) experiment(phase int64, i int, tr *tracer, parent int32, probe *heldProbe) (*netsim.StreamResults, time.Duration, error) {
	cfg := w.uni
	cfg.Seed = subSeed(w.c.seed, 'u', phase, int64(i))
	st, err := traffic.NewUniformStream(cfg)
	if err != nil {
		return nil, 0, err
	}
	sp := tr.start("netsim.run", parent)
	if tr.enabled() {
		st = &tracedStream{src: st, tr: tr, parent: sp}
	}
	if probe != nil {
		probe.src = st
		st = probe
	}
	t0 := time.Now()
	res, err := netsim.RunStream(w.g, st, w.dsts, cfg.Flows, netsim.Config{Policy: netsim.PolicyMIFO})
	d := time.Since(t0)
	tr.end(sp, cfg.Flows)
	if err != nil {
		return nil, 0, fmt.Errorf("experiment %d: %w", i, err)
	}
	return res, d, nil
}

func (w *flowsim) window(b budget, phase int64, tr *tracer) (*sample, error) {
	s := newSample()
	var first outcome
	var routable, usedAlt, switches, peak int
	root := tr.start("bench.window", -1)
	start := time.Now()
	runs := 0
	for b.more(start, runs) {
		ex := tr.start("bench.experiment", root)
		res, d, err := w.experiment(phase, runs, tr, ex, nil)
		tr.end(ex, 1)
		if err != nil {
			return nil, err
		}
		s.lat = append(s.lat, ms(d))
		s.busy += d
		s.ops += int64(res.Flows)
		s.rate(int64(res.Flows), d)
		s.attempted += int64(res.Flows)
		s.failed += int64(res.Flows - res.Completed)
		routable += res.Routable()
		usedAlt += res.UsedAlt
		switches += res.Switches
		peak += res.PeakActive
		if res.Completed+res.StalledForever+res.Unroutable != res.Flows {
			s.violate("flowsim: experiment %d: completed %d + stalled %d + unroutable %d != flows %d",
				runs, res.Completed, res.StalledForever, res.Unroutable, res.Flows)
		}
		if runs == 0 {
			first = outcomeOf(res)
		}
		runs++
	}
	tr.end(root, runs)
	s.held = heldMiB()

	s.fingerprint = []int64{s.ops, s.failed, int64(usedAlt), int64(switches), int64(peak)}
	s.layer["netsim.peak_active"] = ratio(float64(peak), float64(runs))
	s.layer["netsim.switches_per_flow"] = ratio(float64(switches), float64(s.ops))
	s.layer["netsim.offload_frac"] = ratio(float64(usedAlt), float64(routable))
	if phase > 0 && runs > 0 {
		// Off the clock: the first experiment again, from the same inputs,
		// measuring the memory the simulation holds as it runs.
		probe := &heldProbe{every: max(1, w.c.flows/10)}
		res, _, err := w.experiment(phase, 0, nil, -1, probe)
		if err != nil {
			return nil, err
		}
		s.held = max(s.held, probe.peak)
		if again := outcomeOf(res); again != first {
			s.violate("flowsim: experiment 0 is not reproducible: %+v, then %+v", first, again)
		}
	}
	return s, nil
}
