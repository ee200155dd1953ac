// Package netd runs a dataplane.Network as a distributed system: every
// router becomes a goroutine with its own UDP socket on the loopback
// interface, packets travel between routers as real IPv4 datagrams
// (dataplane.MarshalPacket), and the forwarding engine — tag-check,
// IP-in-IP hand-off, FIB lookups — executes on the receive path of each
// node.
//
// Together with core.Runtime (daemon goroutines updating FIBs) this is the
// in-process analog of the paper's prototype: forwarding engine in the
// kernel, MIFO daemon beside it, real packets in between (Section V).
package netd

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// Delivery is a packet that reached its destination AS.
type Delivery struct {
	// Packet is the delivered (decapsulated) packet.
	Packet dataplane.Packet
	// At is the router that delivered it.
	At dataplane.RouterID
}

// Stats aggregates a node's counters.
type Stats struct {
	// Received counts datagrams that arrived on the node's socket;
	// Injected counts packets originated locally through Inject. Every
	// received or injected packet ends in exactly one of the outcome
	// counters below, so
	//
	//	Received + Injected ==
	//	    Forwarded + Delivered + drops + ParseErrors
	//
	// holds at quiescence (the invariant TestStatsInvariantUnderLoad
	// asserts under -race).
	Received                             int64
	Injected                             int64
	Forwarded                            int64
	Deflected                            int64
	Delivered                            int64
	DropNoRoute, DropValleyFree, DropTTL int64
	ParseErrors                          int64
}

// node is one router's networked incarnation. Its counters are handles
// into the fabric's metrics registry (label router="<id>"), resolved once
// at construction so the receive path never touches the registry's locks.
type node struct {
	router *dataplane.Router
	conn   *net.UDPConn
	// peerAddr[port] is the UDP address of the router on the other side.
	peerAddr []*net.UDPAddr
	// portBySender resolves an incoming datagram's source address to the
	// local port it arrived on.
	portBySender map[string]int
	// txBytes counts bytes written per port, sampled by the link monitor.
	txBytes []atomic.Int64

	received, injected, forwarded, deflected, delivered *obs.Counter
	dropNoRoute, dropValleyFree, dropTTL                *obs.Counter
	parseErrors                                         *obs.Counter
	// procLatency is the node's receive-path processing time: unmarshal
	// plus forwarding decision plus transmit.
	procLatency *obs.Histogram
}

// Fabric wires and runs all nodes of a network.
type Fabric struct {
	Net   *dataplane.Network
	nodes []*node

	reg      *obs.Registry
	linkRate *obs.GaugeVec

	deliveries chan Delivery
	wg         sync.WaitGroup
	started    bool
	mu         sync.Mutex

	recorder *audit.Recorder
	// tsLinkUtil[router][port] is the per-link utilization series the
	// link monitor samples each tick (nil until AttachTSDB).
	tsLinkUtil [][]*tsdb.Series
	// nextPktID stamps injected packets that carry no ID of their own, so
	// the flight recorder can stitch each packet's hops — observed at
	// different nodes — into one journey. The ID rides in the IPv4
	// Identification field of the marshaled datagram.
	nextPktID atomic.Uint32
}

// NewFabric binds one loopback UDP socket per router and cross-wires peer
// addresses according to the network's ports. Call Start to begin serving.
// Destination ids travel as 198.18.0.0/16 addresses, so a network with an
// AS id that does not fit (>= 1<<16) is refused rather than aliased.
func NewFabric(n *dataplane.Network) (*Fabric, error) {
	for _, r := range n.Routers {
		if dataplane.PrefixFromAddr(dataplane.PrefixAddr(r.AS)) != r.AS {
			return nil, fmt.Errorf("netd: router %d: AS %d does not fit a wire prefix address", r.ID, r.AS)
		}
	}
	f := &Fabric{Net: n, deliveries: make(chan Delivery, 1024), reg: obs.NewRegistry()}
	recv := f.reg.CounterVec("netd_received_total", "datagrams received on the node's UDP socket", "router")
	inj := f.reg.CounterVec("netd_injected_total", "packets originated locally via Inject", "router")
	fwd := f.reg.CounterVec("netd_forwarded_total", "packets sent towards a peer router", "router")
	defl := f.reg.CounterVec("netd_deflected_total", "packets forwarded on the alternative path", "router")
	delv := f.reg.CounterVec("netd_delivered_total", "packets delivered at their destination AS", "router")
	drops := f.reg.CounterVec("netd_drops_total", "packets discarded, by reason", "router", "reason")
	perr := f.reg.CounterVec("netd_parse_errors_total", "datagrams that failed to unmarshal", "router")
	lat := f.reg.HistogramVec("netd_process_seconds", "receive-path processing time per datagram", obs.DurationBuckets, "router")
	f.linkRate = f.reg.GaugeVec("netd_link_rate_bps", "EWMA-smoothed transmit rate per port (bits/s), from the link monitor", "router", "port")
	f.nodes = make([]*node, len(n.Routers))
	for i, r := range n.Routers {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.closeAll()
			return nil, fmt.Errorf("netd: bind router %d: %w", i, err)
		}
		id := strconv.Itoa(i)
		f.nodes[i] = &node{
			router:         r,
			conn:           conn,
			peerAddr:       make([]*net.UDPAddr, len(r.Ports)),
			portBySender:   make(map[string]int, len(r.Ports)),
			txBytes:        make([]atomic.Int64, len(r.Ports)),
			received:       recv.With(id),
			injected:       inj.With(id),
			forwarded:      fwd.With(id),
			deflected:      defl.With(id),
			delivered:      delv.With(id),
			dropNoRoute:    drops.With(id, "no_route"),
			dropValleyFree: drops.With(id, "valley_free"),
			dropTTL:        drops.With(id, "ttl"),
			parseErrors:    perr.With(id),
			procLatency:    lat.With(id),
		}
	}
	// Second pass: every port learns its peer's socket address.
	for i, nd := range f.nodes {
		r := n.Routers[i]
		for pi := range r.Ports {
			port := &r.Ports[pi]
			if port.Peer < 0 {
				continue
			}
			peer := f.nodes[port.Peer].conn.LocalAddr().(*net.UDPAddr)
			nd.peerAddr[pi] = peer
			nd.portBySender[peer.String()] = pi
		}
	}
	return f, nil
}

func (f *Fabric) closeAll() {
	for _, nd := range f.nodes {
		if nd != nil && nd.conn != nil {
			nd.conn.Close() //mifolint:ignore droppederr teardown of an in-memory pipe during Stop; the peer end is closed concurrently and a double-close error is expected
		}
	}
}

// Start launches every node's receive loop.
func (f *Fabric) Start() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return
	}
	f.started = true
	for _, nd := range f.nodes {
		f.wg.Add(1)
		go f.serve(nd)
	}
}

// Stop closes all sockets and waits for the receive loops to exit.
func (f *Fabric) Stop() {
	f.mu.Lock()
	if !f.started {
		f.mu.Unlock()
		return
	}
	f.started = false
	f.mu.Unlock()
	f.closeAll()
	f.wg.Wait()
}

// Deliveries streams packets that reached their destination AS.
func (f *Fabric) Deliveries() <-chan Delivery { return f.deliveries }

// Inject originates a packet at a router's host port: the node processes
// it exactly as the engine would process host traffic (in = -1).
func (f *Fabric) Inject(p *dataplane.Packet, origin dataplane.RouterID) {
	if p.TTL <= 0 {
		p.TTL = dataplane.DefaultTTL
	}
	if p.ID == 0 {
		p.ID = uint16(f.nextPktID.Add(1))
	}
	nd := f.nodes[origin]
	nd.injected.Inc()
	f.process(nd, p, -1)
}

// Registry exposes the fabric's metrics registry — per-node counters,
// drop reasons, and receive-path latency histograms — for exposition on a
// debug endpoint or for sharing with other instrumented components.
func (f *Fabric) Registry() *obs.Registry { return f.reg }

// EnableTrace attaches a forwarding-decision trace to every router of the
// fabric. Pass nil to detach.
func (f *Fabric) EnableTrace(tr *obs.Trace) {
	for _, nd := range f.nodes {
		nd.router.Trace = tr
	}
}

// AttachRecorder installs a flight recorder as the hop hook on every
// router, so each sampled packet's journey across the UDP fabric is
// recorded and audited (hops are stitched by the packet ID carried in the
// IPv4 Identification field). Pass nil to detach. Like EnableTrace, call
// it before Start: the hook field is read unlocked on the receive path.
func (f *Fabric) AttachRecorder(rec *audit.Recorder) {
	f.recorder = rec
	var hook dataplane.HopFunc
	if rec != nil {
		hook = rec.RouterHook()
	}
	for _, nd := range f.nodes {
		nd.router.Hop = hook
	}
}

// AttachTSDB registers one utilization time series per wired port and
// has the link monitor sample it every tick, so congestion on the UDP
// fabric becomes episode-analyzable history (timestamps are wall-clock
// nanoseconds). Call it before MonitorLoads; the monitor goroutine is
// the single writer the tsdb sample path requires.
func (f *Fabric) AttachTSDB(db *tsdb.Store) {
	if db == nil {
		f.tsLinkUtil = nil
		return
	}
	vec := db.SeriesVec("netd_link_util", "per-port transmit utilization (smoothed rate / capacity)", "router", "port")
	f.tsLinkUtil = make([][]*tsdb.Series, len(f.nodes))
	for i, nd := range f.nodes {
		f.tsLinkUtil[i] = make([]*tsdb.Series, len(nd.txBytes))
		r := f.Net.Routers[i]
		for p := range r.Ports {
			if r.Ports[p].Peer < 0 {
				continue
			}
			f.tsLinkUtil[i][p] = vec.With(strconv.Itoa(i), strconv.Itoa(p))
		}
	}
	db.SetEpisodeSpec(tsdb.EpisodeSpec{Util: "netd_link_util"})
}

// Addr returns the UDP address a router listens on (for external senders).
func (f *Fabric) Addr(id dataplane.RouterID) *net.UDPAddr {
	return f.nodes[id].conn.LocalAddr().(*net.UDPAddr)
}

// StatsOf returns a router's counters.
func (f *Fabric) StatsOf(id dataplane.RouterID) Stats {
	nd := f.nodes[id]
	return Stats{
		Received:       nd.received.Value(),
		Injected:       nd.injected.Value(),
		Forwarded:      nd.forwarded.Value(),
		Deflected:      nd.deflected.Value(),
		Delivered:      nd.delivered.Value(),
		DropNoRoute:    nd.dropNoRoute.Value(),
		DropValleyFree: nd.dropValleyFree.Value(),
		DropTTL:        nd.dropTTL.Value(),
		ParseErrors:    nd.parseErrors.Value(),
	}
}

// TotalStats sums counters across all routers.
func (f *Fabric) TotalStats() Stats {
	var t Stats
	for i := range f.nodes {
		s := f.StatsOf(dataplane.RouterID(i))
		t.Received += s.Received
		t.Injected += s.Injected
		t.Forwarded += s.Forwarded
		t.Deflected += s.Deflected
		t.Delivered += s.Delivered
		t.DropNoRoute += s.DropNoRoute
		t.DropValleyFree += s.DropValleyFree
		t.DropTTL += s.DropTTL
		t.ParseErrors += s.ParseErrors
	}
	return t
}

// serve is one node's receive loop.
func (f *Fabric) serve(nd *node) {
	defer f.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := nd.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed by Stop
		}
		start := time.Now()
		nd.received.Inc()
		p, perr := dataplane.UnmarshalPacket(buf[:n])
		if perr != nil {
			nd.parseErrors.Inc()
			continue
		}
		in, known := nd.portBySender[from.String()]
		if !known {
			in = -1 // treat unknown senders as host traffic
		}
		f.process(nd, p, in)
		nd.procLatency.Observe(time.Since(start).Seconds())
	}
}

// process runs the forwarding engine and acts on its verdict.
func (f *Fabric) process(nd *node, p *dataplane.Packet, in int) {
	if p.TTL <= 0 {
		nd.router.DropExpired(p, in)
		nd.dropTTL.Inc()
		return
	}
	p.TTL--
	act := nd.router.Forward(p, in)
	switch act.Verdict {
	case dataplane.VerdictDeliver:
		nd.delivered.Inc()
		select {
		case f.deliveries <- Delivery{Packet: *p, At: nd.router.ID}:
		default: // consumer not keeping up; stats still count it
		}
	case dataplane.VerdictDrop:
		switch act.Reason {
		case dataplane.DropValleyFree:
			nd.dropValleyFree.Inc()
		case dataplane.DropTTL:
			nd.dropTTL.Inc()
		default:
			nd.dropNoRoute.Inc()
		}
	case dataplane.VerdictForward:
		addr := nd.peerAddr[act.Port]
		if addr == nil {
			nd.dropNoRoute.Inc()
			return
		}
		if act.Deflected {
			nd.deflected.Inc()
		}
		nd.forwarded.Inc()
		// Best-effort datagram send, like the real data plane.
		wire := dataplane.MarshalPacket(p)
		nd.txBytes[act.Port].Add(int64(len(wire)))
		nd.conn.WriteToUDP(wire, addr)
	}
}

// MonitorLoads starts the MIFO link monitor: every interval each node
// samples its per-port transmit counters, smooths them with an EWMA meter
// (core.Meter), and publishes the result as the port's utilization and
// queue-ratio signal. From then on congestion detection — and therefore
// deflection — is driven entirely by the traffic actually crossing the
// sockets. The returned stop function halts the monitor.
func (f *Fabric) MonitorLoads(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		meters := make([][]*core.Meter, len(f.nodes))
		prev := make([][]int64, len(f.nodes))
		for i, nd := range f.nodes {
			meters[i] = make([]*core.Meter, len(nd.txBytes))
			prev[i] = make([]int64, len(nd.txBytes))
			for p := range meters[i] {
				meters[i][p] = core.NewMeter(4 * interval.Seconds())
				// Publish each meter's smoothed rate as a live gauge so
				// /metrics shows what the congestion signal actually sees.
				meters[i][p].Bind(f.linkRate.With(strconv.Itoa(i), strconv.Itoa(p)))
			}
		}
		start := time.Now()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				now := time.Since(start).Seconds()
				ts := time.Now().UnixNano()
				for i, nd := range f.nodes {
					for p := range nd.txBytes {
						cur := nd.txBytes[p].Load()
						meters[i][p].Observe(float64(cur-prev[i][p])*8, now)
						prev[i][p] = cur
						rate := meters[i][p].Rate(now)
						nd.router.SetUtilization(p, rate)
						capacity := nd.router.Ports[p].CapacityBps
						if capacity > 0 {
							ratio := rate / capacity
							if ratio > 1 {
								ratio = 1
							}
							nd.router.SetQueueRatio(p, ratio)
							if f.tsLinkUtil != nil && f.tsLinkUtil[i][p] != nil {
								f.tsLinkUtil[i][p].Sample(ts, ratio)
							}
						}
					}
				}
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
