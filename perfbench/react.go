package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bgp"
	"repro/internal/dataplane"
)

// maxReported bounds how many violations of one check a run names; the
// rest are counted.
const maxReported = 5

// Link loads of one epoch, as shares of link capacity: a fixed share of
// link directions sits in [hotLow, 1) — above the routers' 0.8 queue-ratio
// threshold — and the rest in [0, coolHigh).
const (
	hotLow   = 0.85
	coolHigh = 0.7
)

// react runs control epochs: each draws new link loads so that the
// congested set moves, then times Deployment.Refresh, from the load change
// to every daemon's FIB republished. It measures MIFO's reaction to
// congestion (RIB mining, greedy selection, batched FIB commit) on its own;
// congestion adds a packet batch to every epoch.
type react struct{ onNetwork }

func (w *react) describe() (string, string, string) {
	return "epochs_per_s", "react", fmt.Sprintf("ases=%d routers=%d hot_share=%.2f", w.net.g.N(), len(w.net.dep.Net.Routers), w.c.share)
}

func (w *react) window(b budget, phase int64, tr *tracer) (*sample, error) {
	ep := newEpochs(w.net, w.c.share, subSeed(w.c.seed, 'r', phase))
	s := newSample()
	var useful float64
	root := tr.start("bench.window", -1)
	start := time.Now()
	for b.more(start, int(s.ops)) {
		sp := tr.start("bench.epoch", root)
		d, moved, err := ep.next(tr, sp)
		tr.end(sp, 1)
		if err != nil {
			return nil, err
		}
		useful += moved
		s.lat = append(s.lat, ms(d))
		s.busy += d
		s.ops++
		s.rate(1, d)
	}
	tr.end(root, int(s.ops))
	s.held = heldMiB()

	s.attempted = s.ops
	s.layer["core.fib_publish_useful"] = ratio(useful, float64(s.ops))
	if phase > 0 {
		published, viaSum := checkPublished(w.net, s)
		s.fingerprint = []int64{s.ops, published, viaSum}
	}
	return s, nil
}

// epochs draws the link loads of successive control epochs and runs them.
type epochs struct {
	net          *network
	rng          *rand.Rand
	dirs         []direction
	hot          int // directions loaded above the threshold
	gens0, gens1 []uint64
}

type direction struct{ from, to int }

func newEpochs(net *network, share float64, seed int64) *epochs {
	dirs := make([]direction, 0, 2*len(net.links))
	for _, l := range net.links {
		dirs = append(dirs, direction{l.A, l.B}, direction{l.B, l.A})
	}
	return &epochs{net: net, rng: rand.New(rand.NewSource(seed)), dirs: dirs, hot: int(share*float64(len(dirs)) + 0.5)}
}

// setLoads draws one epoch's link loads: hot random directions above the
// congestion threshold, the rest below it.
func (e *epochs) setLoads() error {
	capacity := 1e9 // core.Deployment's default link capacity
	for i := 0; i < e.hot; i++ {
		j := i + e.rng.Intn(len(e.dirs)-i)
		e.dirs[i], e.dirs[j] = e.dirs[j], e.dirs[i]
	}
	for i, d := range e.dirs {
		load := coolHigh * e.rng.Float64()
		if i < e.hot {
			load = hotLow + (1-hotLow)*e.rng.Float64()
		}
		if err := e.net.dep.SetLinkLoad(d.from, d.to, load*capacity); err != nil {
			return err
		}
	}
	return nil
}

// next runs one epoch: new loads, then Deployment.Refresh. It returns the
// reaction time, from the load change to every daemon's FIB republished,
// and the share of routers whose FIB generation advanced.
func (e *epochs) next(tr *tracer, parent int32) (time.Duration, float64, error) {
	if err := e.setLoads(); err != nil {
		return 0, 0, err
	}
	e.gens0 = fibGenerations(e.net.dep.Net, e.gens0)
	t0 := time.Now()
	refresh(e.net, tr, parent)
	d := time.Since(t0)
	e.gens1 = fibGenerations(e.net.dep.Net, e.gens1)
	return d, advanced(e.gens0, e.gens1), nil
}

// refresh is Deployment.Refresh, under one core.refresh span that covers
// every daemon's epoch.
func refresh(net *network, tr *tracer, parent int32) {
	sp := tr.start("core.refresh", parent)
	net.dep.Refresh()
	tr.end(sp, net.daemons)
}

// checkPublished verifies, off the clock, that the FIBs hold what the
// greedy rule of Section III-C selects under the loads now set. For every
// MIFO AS and destination it re-derives the choice from the RIB
// (bgp.RIBInto) and the measured spare capacity of each candidate's local
// link: the published alternative must be a RIB route other than the
// default, on a link with the most spare capacity (to within the 1e-6
// relative tolerance core treats as a tie), programmed on the router
// owning that link, and every sibling router must point its alternative at
// that owner over iBGP. Without candidates no router may hold an
// alternative. It returns the number of published alternatives and the sum
// of their next-hop ASes, which depends on the loads.
func checkPublished(net *network, s *sample) (published, viaSum int64) {
	g, dep := net.g, net.dep
	var rib []bgp.Alt
	var bad int64
	fail := func(format string, args ...any) {
		if bad++; bad <= maxReported {
			s.violate("react: "+format, args...)
		}
	}
	for v := 0; v < g.N(); v++ {
		if dep.Daemon(v) == nil {
			continue
		}
		routers := dep.Routers(v)
		for _, dst := range net.dsts {
			d := net.tab.Dest(dst)
			if dst == v || !d.Reachable(v) {
				continue
			}
			def := int32(d.NextHop(v))
			rib = bgp.RIBInto(g, d, v, rib)
			best := -1.0
			for _, a := range rib {
				if a.Via == def {
					continue
				}
				if r, p, err := dep.EgressPort(v, int(a.Via)); err == nil {
					best = max(best, r.SpareCapacity(p))
				}
			}

			var owner *dataplane.Router
			var ownerPort int
			for _, r := range routers {
				e, ok := r.FIB.Lookup(int32(dst))
				if !ok {
					fail("AS %d router %d has no FIB entry for %d", v, r.ID, dst)
				} else if e.Alt >= 0 && r.Ports[e.Alt].Kind == dataplane.EBGP {
					if owner != nil {
						fail("AS %d publishes two eBGP alternatives for %d", v, dst)
					}
					owner, ownerPort = r, e.Alt
				}
			}
			if best < 0 {
				for _, r := range routers {
					if e, _ := r.FIB.Lookup(int32(dst)); e.Alt >= 0 {
						fail("AS %d router %d holds an alternative for %d, but its RIB offers none", v, r.ID, dst)
					}
				}
				continue
			}
			if owner == nil {
				fail("AS %d published no alternative for %d; its RIB offers one", v, dst)
				continue
			}
			via := owner.Ports[ownerPort].PeerAS
			published++
			viaSum += int64(via)
			inRIB := false
			for _, a := range rib {
				inRIB = inRIB || (a.Via == via && via != def)
			}
			spare := owner.SpareCapacity(ownerPort)
			if !inRIB {
				fail("AS %d's alternative for %d goes via AS %d, which is the default or not in its RIB", v, dst, via)
			} else if best-spare > 1e-6*(1+spare+best) {
				// Spare capacities this close are ties in core's
				// selection, broken by route preference.
				fail("AS %d's alternative for %d has %.0f b/s spare; another candidate has %.0f", v, dst, spare, best)
			}
			for _, r := range routers {
				if r == owner {
					continue
				}
				e, _ := r.FIB.Lookup(int32(dst))
				if e.Alt < 0 || r.Ports[e.Alt].Kind != dataplane.IBGP || r.Ports[e.Alt].Peer != owner.ID || e.AltVia != owner.ID {
					fail("AS %d router %d does not point its alternative for %d at owner router %d", v, r.ID, dst, owner.ID)
				}
			}
		}
	}
	if bad > maxReported {
		s.violate("react: %d more published alternatives disagree with the greedy rule", bad-maxReported)
	}
	return published, viaSum
}
