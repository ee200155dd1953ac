package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataplane"
)

const (
	// sendBatch is how many packets one dataplane.send span covers; pairs
	// for a batch are drawn before it, so the span holds only Send calls.
	sendBatch = 256
	// latEvery times every latEvery-th packet on its own; the rest are
	// timed only as part of their batch.
	latEvery = 16
	// checkEvery keeps every checkEvery-th packet's result for the path
	// check after the window, up to maxChecks.
	checkEvery = 64
	maxChecks  = 4096
)

// forward sends packets between uniform random AS pairs over an unloaded
// network: the dataplane's default branch does nearly all the work.
type forward struct{ onNetwork }

func (f *forward) describe() (string, string, string) {
	return "pps", "send", fmt.Sprintf("ases=%d routers=%d", f.net.g.N(), len(f.net.dep.Net.Routers))
}

type sentPacket struct {
	src, dst int
	res      dataplane.Result
}

func (f *forward) window(b budget, phase int64, tr *tracer) (*sample, error) {
	rng := rand.New(rand.NewSource(subSeed(f.c.seed, 'f', phase)))
	n := f.net.g.N()
	dep := f.net.dep
	s := newSample()
	allocs := newAllocCounter()
	var allocObj, allocBytes uint64
	var checks []sentPacket
	src := make([]int, sendBatch)
	dst := make([]int, sendBatch)

	root := tr.start("bench.window", -1)
	start := time.Now()
	var sent, subSent int
	var subBusy time.Duration
	for b.more(start, sent) {
		for i := range src {
			src[i], dst[i] = f.reachablePair(rng, n)
		}
		o0, b0 := allocs.read()
		sp := tr.start("dataplane.send", root)
		t0 := time.Now()
		for i := range src {
			key := flowKey(src[i], dst[i], uint16(sent+i))
			var res dataplane.Result
			if (sent+i)%latEvery == 0 {
				t := time.Now()
				res = dep.Send(key, src[i], dst[i])
				s.lat = append(s.lat, ms(time.Since(t)))
			} else {
				res = dep.Send(key, src[i], dst[i])
			}
			s.pkts.add(dep.Net, res)
			if (sent+i)%checkEvery == 0 && len(checks) < maxChecks {
				checks = append(checks, sentPacket{src[i], dst[i], res})
			}
		}
		d := time.Since(t0)
		s.busy += d
		tr.end(sp, len(src))
		o1, b1 := allocs.read()
		allocObj += o1 - o0
		allocBytes += b1 - b0
		sent += len(src)
		if subSent, subBusy = subSent+len(src), subBusy+d; subBusy >= time.Second {
			s.rate(int64(subSent), subBusy)
			subSent, subBusy = 0, 0
		}
	}
	tr.end(root, sent)
	s.held = heldMiB()

	s.ops = int64(sent)
	s.attempted = s.pkts.packets
	s.failed = s.pkts.failed()
	s.fingerprint = []int64{s.pkts.packets, s.pkts.delivered, s.pkts.hops}
	s.layer["dataplane.allocs_per_pkt"] = ratio(float64(allocObj), float64(sent))
	s.layer["dataplane.bytes_per_pkt"] = ratio(float64(allocBytes), float64(sent))
	if s.failed > 0 {
		s.violate("forward: %d of %d packets not delivered on an unloaded network", s.failed, s.pkts.packets)
	}
	if phase > 0 {
		for _, c := range checks {
			if err := checkPath(dep.Net, f.net.tab.Dest(c.dst), c.src, c.res); err != nil {
				s.violate("forward: %v", err)
			}
		}
	}
	return s, nil
}

// reachablePair draws a uniform random ordered pair of distinct ASes with
// a route between them.
func (f *forward) reachablePair(rng *rand.Rand, n int) (int, int) {
	for {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b && f.net.tab.Dest(b).Reachable(a) {
			return a, b
		}
	}
}
