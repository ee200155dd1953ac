package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bgp"
	"repro/internal/topo"
)

// churn fails and recovers uniformly drawn links one at a time and times
// each event to data-plane consistency, through the sequence
// netsim.mirrorConverge runs: Table.LinkDown/LinkUp, then (when any route
// changed) Deployment.InstallDestinations(table.All()), then a daemon epoch
// on both endpoint ASes. Untimed probes check the data plane after every
// event.
type churn struct{ onNetwork }

func (w *churn) describe() (string, string, string) {
	return "events_per_s", "converge", fmt.Sprintf("ases=%d routers=%d links=%d", w.net.g.N(), len(w.net.dep.Net.Routers), len(w.net.links))
}

// churnLayer accumulates the traced window's per-event bgp and core counts.
type churnLayer struct {
	dirty, changed int64
	useful         float64 // summed per-event share of routers that republished
	stats0         bgp.TableStats
}

func (w *churn) window(b budget, phase int64, tr *tracer) (*sample, error) {
	rng := rand.New(rand.NewSource(subSeed(w.c.seed, 'e', phase)))
	s := newSample()
	cl := churnLayer{stats0: w.net.tab.Stats()}
	root := tr.start("bench.window", -1)
	start := time.Now()
	for b.more(start, int(s.ops)) {
		l := w.net.links[rng.Intn(len(w.net.links))]
		for _, down := range []bool{true, false} {
			d := w.event(l, down, tr, root, s, &cl)
			s.lat = append(s.lat, ms(d))
			s.busy += d
			s.ops++
			s.rate(1, d)
			w.probe(rng, tr, root, s)
		}
	}
	tr.end(root, int(s.ops))
	s.held = heldMiB()

	s.attempted = s.pkts.packets
	s.failed = s.pkts.failed()
	s.fingerprint = []int64{s.ops, cl.dirty, s.pkts.delivered, s.pkts.hops}
	if tr.enabled() {
		st := w.net.tab.Stats()
		skipped := float64(st.CleanSkipped - cl.stats0.CleanSkipped)
		recomputed := float64(st.IncrementalComputes - cl.stats0.IncrementalComputes)
		s.layer["bgp.dirty_dests"] = ratio(float64(cl.dirty), float64(s.ops))
		s.layer["bgp.recompute_useful"] = ratio(float64(cl.changed), float64(cl.dirty))
		s.layer["bgp.clean_skipped_share"] = ratio(skipped, skipped+recomputed)
		s.layer["core.fib_publish_useful"] = ratio(cl.useful, float64(s.ops))
	}
	if phase > 0 {
		// Every event was undone, but the check holds for any link state:
		// the incrementally maintained table must equal a from-scratch
		// build on the table's current topology.
		fresh := bgp.NewTable(w.net.tab.Graph(), w.net.dsts, 0)
		for _, d := range w.net.dsts {
			if !w.net.tab.Dest(d).Equal(fresh.Dest(d)) {
				s.violate("churn: incremental table for destination %d differs from a fresh build", d)
			}
		}
	}
	return s, nil
}

// event applies one link failure (down) or recovery and returns the time
// until the data plane was consistent with the repaired routes.
func (w *churn) event(l topo.LinkRef, down bool, tr *tracer, parent int32, s *sample, cl *churnLayer) time.Duration {
	tab, dep := w.net.tab, w.net.dep
	var pre *bgp.Table
	var gens0 []uint64
	if tr.enabled() {
		pre = tab.Clone()
		gens0 = fibGenerations(dep.Net, nil)
	}

	ev := tr.start("bench.event", parent)
	t0 := time.Now()
	sp := tr.start("bgp.recompute", ev)
	var dirty int
	if down {
		dirty = tab.LinkDown(l.A, l.B)
	} else {
		dirty = tab.LinkUp(l.A, l.B)
	}
	tr.end(sp, dirty)
	if dirty > 0 {
		tables := tab.All()
		sp = tr.start("core.install", ev)
		dep.InstallDestinations(tables)
		tr.end(sp, len(tables))
		for _, v := range []int{l.A, l.B} {
			if dm := dep.Daemon(v); dm != nil {
				sp = tr.start("core.daemon_epoch", ev)
				dm.RefreshAll(tables)
				tr.end(sp, len(tables))
			}
		}
	}
	d := time.Since(t0)
	tr.end(ev, 1)

	cl.dirty += int64(dirty)
	if down {
		// Off the clock: no route may still cross the failed link.
		for _, dst := range w.net.dsts {
			if r := tab.Dest(dst); (r.Reachable(l.A) && r.NextHop(l.A) == l.B) || (r.Reachable(l.B) && r.NextHop(l.B) == l.A) {
				s.violate("churn: after link %d-%d failed, the route to %d still crosses it", l.A, l.B, dst)
			}
		}
	}
	if tr.enabled() {
		for _, dst := range w.net.dsts {
			if a, b := tab.Dest(dst), pre.Dest(dst); a != b && !a.Equal(b) {
				cl.changed++
			}
		}
		cl.useful += advanced(gens0, fibGenerations(dep.Net, nil))
	}
	return d
}

// probe sends packets between random pairs that the repaired table can
// route and, after the batch, requires each to have arrived along the
// table's path.
func (w *churn) probe(rng *rand.Rand, tr *tracer, parent int32, s *sample) {
	n := w.net.g.N()
	tab, dep := w.net.tab, w.net.dep
	sent := make([]sentPacket, 0, w.c.probes)
	sp := tr.start("dataplane.send", parent)
	for i := 0; i < w.c.probes; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst || !tab.Dest(dst).Reachable(src) {
			continue
		}
		res := dep.Send(flowKey(src, dst, uint16(i)), src, dst)
		s.pkts.add(dep.Net, res)
		sent = append(sent, sentPacket{src, dst, res})
	}
	tr.end(sp, len(sent))
	for _, p := range sent {
		if err := checkPath(dep.Net, tab.Dest(p.dst), p.src, p.res); err != nil {
			s.violate("churn: probe after link event: %v", err)
		}
	}
}
