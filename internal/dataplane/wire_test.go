package dataplane

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Flow: FlowKey{
			SrcAddr: 0x0A000001,
			SrcPort: 43211,
			DstPort: 80,
			Proto:   protoTCP,
		},
		Dst: 1234,
		Tag: true,
		TTL: 17,
	}
}

func TestWireRoundTripPlain(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	b := MarshalPacket(p)
	got, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestWireRoundTripEncap(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	p.Encap = true
	p.OuterSrc = 7
	p.OuterDst = 42
	b := MarshalPacket(p)
	// Outer header must be protocol 4 (IP-in-IP).
	if b[9] != protoIPinIP {
		t.Fatalf("outer protocol = %d, want 4", b[9])
	}
	got, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Encap || got.OuterSrc != 7 || got.OuterDst != 42 {
		t.Fatalf("encap fields lost: %+v", got)
	}
	if got.Flow != p.Flow || got.Tag != p.Tag || got.Dst != p.Dst {
		t.Fatalf("inner fields lost: %+v", got)
	}
}

func TestWireTagBitPlacement(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	p.Tag = true
	b := MarshalPacket(p)
	flags := binary.BigEndian.Uint16(b[6:8])
	if flags&(1<<15) == 0 {
		t.Error("tag must sit in the IPv4 reserved flag bit")
	}
	p.Tag = false
	b = MarshalPacket(p)
	if binary.BigEndian.Uint16(b[6:8])&(1<<15) != 0 {
		t.Error("cleared tag still set on the wire")
	}
}

func TestWireChecksumValidity(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	b := MarshalPacket(p)
	if ipv4Checksum(b[:20]) != 0 {
		t.Error("serialized header checksum does not verify")
	}
	// Corrupt one byte: parse must fail.
	b[16] ^= 0xFF
	if _, err := UnmarshalPacket(b); err == nil {
		t.Error("corrupted datagram parsed successfully")
	}
}

// marshalToAddr serializes the sample packet with the given inner
// destination address.
func marshalToAddr(dst uint32, encap bool) []byte {
	p := samplePacket()
	p.Flow.DstAddr = dst
	if encap {
		p.Encap = true
		p.OuterSrc, p.OuterDst = 1, 2
	}
	return MarshalPacket(p)
}

func TestWireMalformedInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       {0x45, 0, 0, 10},
		"not-ipv4":    append([]byte{0x65}, make([]byte, 30)...),
		"bad-ihl":     append([]byte{0x4F}, make([]byte, 30)...),
		"bad-total":   func() []byte { b := MarshalPacket(samplePacket()); binary.BigEndian.PutUint16(b[2:4], 9); return b }(),
		"short-ports": func() []byte { b := MarshalPacket(samplePacket()); return b[:21] }(),
		// The inner destination is the FIB key: only 198.18.0.0/16 maps to
		// a destination id, so anything else must not alias one.
		"router-dst":       marshalToAddr(RouterAddr(4), false),
		"router-dst-encap": marshalToAddr(RouterAddr(4), true),
		"198.19-dst":       marshalToAddr(0xC6130004, false),
		"public-dst":       marshalToAddr(0x08080808, false),
	}
	for name, b := range cases {
		if _, err := UnmarshalPacket(b); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestAddrMappings(t *testing.T) {
	if got := RouterFromAddr(RouterAddr(99)); got != 99 {
		t.Errorf("router addr round trip = %d", got)
	}
	if got := PrefixFromAddr(PrefixAddr(4321)); got != 4321 {
		t.Errorf("prefix addr round trip = %d", got)
	}
	if RouterAddr(1)>>24 != 10 {
		t.Error("router addresses must live in 10/8")
	}
	if PrefixAddr(1)>>16 != 0xC612 {
		t.Error("prefix addresses must live in 198.18/16")
	}
}

// Property: marshal/unmarshal is the identity on the carried fields.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(srcAddr uint32, sp, dp uint16, dst int16, tag, encap bool, outerSrc, outerDst uint16, ttl uint8) bool {
		if ttl == 0 {
			ttl = 1
		}
		p := &Packet{
			Flow: FlowKey{SrcAddr: srcAddr, SrcPort: sp, DstPort: dp, Proto: protoTCP},
			Dst:  int32(uint16(dst)),
			Tag:  tag,
			TTL:  int(ttl),
		}
		p.Flow.DstAddr = PrefixAddr(p.Dst)
		if encap {
			p.Encap = true
			p.OuterSrc = RouterID(outerSrc)
			p.OuterDst = RouterID(outerDst)
		}
		b := MarshalPacket(p)
		got, err := UnmarshalPacket(b)
		if err != nil {
			return false
		}
		return *got == *p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A forwarded-then-marshaled packet equals a marshaled-then-forwarded one:
// the wire format commutes with the engine's mutations (tagging, encap).
func TestWireCommutesWithForwarding(t *testing.T) {
	n, r1, r2, _, _ := fig2bNet(t)
	_ = r2
	r1.SetQueueRatio(0, 1.0) // congest the default: R1 will encapsulate
	p := &Packet{Flow: FlowKey{SrcAddr: 7, DstAddr: PrefixAddr(0), DstPort: 80, Proto: protoTCP}, Dst: 0, TTL: 32}
	act := r1.Forward(p, -1)
	if act.Verdict != VerdictForward || !p.Encap {
		t.Fatalf("expected encapsulating forward, got %+v (encap=%v)", act, p.Encap)
	}
	onWire := MarshalPacket(p)
	back, err := UnmarshalPacket(onWire)
	if err != nil {
		t.Fatal(err)
	}
	// TTL is not decremented by Forward (the Network does it), so the
	// packet must survive the wire unchanged.
	if *back != *p {
		t.Fatalf("wire altered the packet:\n got %+v\nwant %+v", back, p)
	}
	if !bytes.Equal(onWire, MarshalPacket(back)) {
		t.Fatal("re-marshaling is not stable")
	}
	_ = n
}
