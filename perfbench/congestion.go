package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/dataplane"
	"repro/internal/traffic"
)

const (
	flowBits = 8e7 // 10 MB flows, as in the paper's experiments
	// auditChunk bounds the packets replayed between recorder drains, so
	// the recorder's hop rings never fill and shed.
	auditChunk = 1000
)

// congestion is react with a batch of power-law packets forwarded after
// every epoch. Deflection, tag-drops and iBGP encapsulation all happen, and
// FIB generations are published between read batches.
type congestion struct {
	react
	providers []int
	consumers []int
}

func (w *congestion) setup(tr *tracer, parent int32) error {
	if err := w.react.setup(tr, parent); err != nil {
		return err
	}
	g := w.net.g
	w.providers = traffic.RankContentProviders(g, max(1, g.N()/10))
	w.consumers = traffic.StubASes(g)
	if w.c.disableTagCheck {
		for _, r := range w.net.dep.Net.Routers {
			r.DisableTagCheck = true
		}
	}
	return nil
}

func (w *congestion) describe() (string, string, string) {
	return "pps", "react", fmt.Sprintf("ases=%d routers=%d batch=%d hot_share=%.2f", w.net.g.N(), len(w.net.dep.Net.Routers), w.c.batch, w.c.share)
}

// arrivalRate is the experiments' auto-scaled flow arrival rate for an
// n-AS topology: 25 x 44,340/n flows/s, at least 100.
func arrivalRate(n int) float64 { return max(100, 25*44340/float64(n)) }

// stream is the power-law packet matrix: content providers to stubs, α = 1.
func (w *congestion) stream(seed int64) (traffic.Stream, error) {
	return traffic.NewPowerLawStream(traffic.PowerLawConfig{
		Providers: w.providers, Consumers: w.consumers, Alpha: 1.0,
		ArrivalRate: arrivalRate(w.net.g.N()), SizeBits: flowBits, Seed: seed,
	})
}

func (w *congestion) window(b budget, phase int64, tr *tracer) (*sample, error) {
	ep := newEpochs(w.net, w.c.share, subSeed(w.c.seed, 'c', phase))
	stream, err := w.stream(subSeed(w.c.seed, 'p', phase))
	if err != nil {
		return nil, err
	}
	dep := w.net.dep
	s := newSample()
	allocs := newAllocCounter()
	var allocObj, allocBytes uint64
	flows := make([]traffic.Flow, w.c.batch)
	var useful float64

	root := tr.start("bench.window", -1)
	start := time.Now()
	epochs := 0
	for b.more(start, epochs) {
		epSpan := tr.start("bench.epoch", root)
		d, moved, err := ep.next(tr, epSpan)
		if err != nil {
			return nil, err
		}
		s.lat = append(s.lat, ms(d))
		useful += moved

		sp := tr.start("traffic.next", epSpan)
		for i := range flows {
			if flows[i], err = nextFlow(stream); err != nil {
				return nil, err
			}
		}
		tr.end(sp, len(flows))

		o0, b0 := allocs.read()
		sp = tr.start("dataplane.send", epSpan)
		t0 := time.Now()
		for _, f := range flows {
			s.pkts.add(dep.Net, dep.Send(flowKey(f.Src, f.Dst, uint16(f.ID)), f.Src, f.Dst))
		}
		d = time.Since(t0)
		s.busy += d
		s.rate(int64(len(flows)), d)
		tr.end(sp, len(flows))
		o1, b1 := allocs.read()
		allocObj += o1 - o0
		allocBytes += b1 - b0
		tr.end(epSpan, 1)
		epochs++
	}
	tr.end(root, epochs)
	s.held = heldMiB()

	s.ops = s.pkts.packets
	s.attempted = s.pkts.packets
	s.failed = s.pkts.failed()
	s.fingerprint = []int64{s.pkts.delivered, s.pkts.hops, s.pkts.deflected, s.pkts.encap, s.pkts.drops[dataplane.DropValleyFree]}
	s.layer["dataplane.allocs_per_pkt"] = ratio(float64(allocObj), float64(s.pkts.packets))
	s.layer["dataplane.bytes_per_pkt"] = ratio(float64(allocBytes), float64(s.pkts.packets))
	s.layer["core.fib_publish_useful"] = ratio(useful, float64(epochs))
	if n := s.pkts.drops[dataplane.DropTTL] + s.pkts.drops[dataplane.DropNoRoute]; n > 0 {
		s.violate("congestion: %d packets dropped for TTL or no route (only valley-free drops are allowed)", n)
	}
	if phase > 0 {
		if err := w.gate(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// nextFlow draws the next flow with distinct endpoints (a content provider
// can also be a consumer stub).
func nextFlow(st traffic.Stream) (traffic.Flow, error) {
	for {
		f, ok := st.Next()
		if !ok {
			return f, fmt.Errorf("traffic stream ended")
		}
		if f.Src != f.Dst {
			return f, nil
		}
	}
}

// gate runs one more epoch off the clock, drawn from its own seed (loads
// are set on every link, and daemon selection keeps no state between
// epochs), so the verdict does not depend on how many epochs the window
// fitted: it forwards a batch, then replays it under the same loads with a
// flight recorder on every router. The invariant checker must find no violation, no packet may
// drop for TTL or no route, the recorder must have shed nothing (so the
// check saw every hop) and finished one journey per packet, and the replay
// must repeat the batch's outcomes.
func (w *congestion) gate(s *sample) error {
	stream, err := w.stream(subSeed(w.c.seed, 'h'))
	if err != nil {
		return err
	}
	if _, _, err = newEpochs(w.net, w.c.share, subSeed(w.c.seed, 'g')).next(nil, -1); err != nil {
		return err
	}
	dep := w.net.dep
	flows := make([]traffic.Flow, w.c.batch)
	for i := range flows {
		if flows[i], err = nextFlow(stream); err != nil {
			return err
		}
	}
	var sent, replay packetTally
	for _, f := range flows {
		sent.add(dep.Net, dep.Send(flowKey(f.Src, f.Dst, uint16(f.ID)), f.Src, f.Dst))
	}

	rec := audit.NewRecorder(audit.Options{})
	defer rec.Close()
	hook := rec.RouterHook()
	for _, r := range dep.Net.Routers {
		r.Hop = hook
	}
	defer func() {
		for _, r := range dep.Net.Routers {
			r.Hop = nil
		}
	}()
	for i, f := range flows {
		replay.add(dep.Net, dep.Send(flowKey(f.Src, f.Dst, uint16(f.ID)), f.Src, f.Dst))
		if (i+1)%auditChunk == 0 {
			rec.Stats() // drain barrier: empties the hop rings
		}
	}
	st := rec.Stats()
	bad := rec.ViolatingRecords()
	if err := rec.Close(); err != nil {
		return fmt.Errorf("flight recorder: %w", err)
	}
	if st.Violations > 0 {
		var first strings.Builder
		audit.FormatRecord(&first, bad[0])
		s.violate("congestion: flight recorder found %d invariant violations (by invariant %v) in %d journeys; first:\n%s",
			st.Violations, st.ByInvariant, st.Records, first.String())
	}
	if st.RingDropped > 0 {
		s.violate("congestion: flight recorder shed %d hop records; the audit did not see every hop", st.RingDropped)
	}
	if st.Records != uint64(len(flows)) {
		s.violate("congestion: flight recorder finished %d journeys for %d packets", st.Records, len(flows))
	}
	if n := replay.drops[dataplane.DropTTL] + replay.drops[dataplane.DropNoRoute]; n > 0 {
		s.violate("congestion: %d audited packets dropped for TTL or no route", n)
	}
	if replay != sent {
		s.violate("congestion: replay diverged from the forwarded batch: %+v, then %+v", sent, replay)
	}
	return nil
}
