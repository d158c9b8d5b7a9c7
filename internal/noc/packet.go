package noc

import "fmt"

// PacketType is the 32-bit packet-type field of Fig 1. Only the low opcode
// byte distinguishes packet classes; CONFIG_CMD packets additionally pack
// the global-manager ID and the activation signal into the same word,
// exactly as Fig 1(b) draws it.
type PacketType uint32

// Packet classes. PowerReq and ConfigCmd are the two formats the paper
// defines; the memory and coherence types carry the background traffic
// generated by the cache hierarchy; Grant carries the manager's allocation
// decisions back to the cores.
const (
	TypeInvalid PacketType = iota
	TypePowerReq
	TypePowerGrant
	TypeConfigCmd
	TypeMemReadReq
	TypeMemReadReply
	TypeMemWriteReq
	TypeMemWriteAck
	TypeCohInvalidate
	TypeCohAck
	numPacketTypes
)

// String implements fmt.Stringer.
func (t PacketType) String() string {
	switch t {
	case TypePowerReq:
		return "POWER_REQ"
	case TypePowerGrant:
		return "POWER_GRANT"
	case TypeConfigCmd:
		return "CONFIG_CMD"
	case TypeMemReadReq:
		return "MEM_READ_REQ"
	case TypeMemReadReply:
		return "MEM_READ_REPLY"
	case TypeMemWriteReq:
		return "MEM_WRITE_REQ"
	case TypeMemWriteAck:
		return "MEM_WRITE_ACK"
	case TypeCohInvalidate:
		return "COH_INVALIDATE"
	case TypeCohAck:
		return "COH_ACK"
	default:
		return fmt.Sprintf("packet-type(%d)", uint32(t))
	}
}

// IsData reports whether packets of this type carry a cache line and hence
// occupy the Table I data-packet size of 5 flits; every other type is a
// 1-flit meta packet.
func (t PacketType) IsData() bool {
	return t == TypeMemReadReply || t == TypeMemWriteReq
}

// Packet is one network packet. Field widths follow Fig 1: 16-bit source
// and destination addresses, a 32-bit type word and a 32-bit payload, plus
// an optional options field.
type Packet struct {
	// ID is a unique, monotonically increasing identifier assigned at
	// injection time.
	ID uint64
	// Src is the source address (the attacker's ID for CONFIG_CMD).
	Src NodeID
	// Dst is the destination address.
	Dst NodeID
	// Type is the 32-bit packet-type word.
	Type PacketType
	// Payload is the 32-bit payload: the power-request value in milliwatts
	// for POWER_REQ, the grant in milliwatts for POWER_GRANT, and the
	// packed configuration word for CONFIG_CMD.
	Payload uint32
	// Options is the optional trailing field of Fig 1.
	Options []uint32
	// Class selects the traffic class: 0 rides the primary routing
	// algorithm, 1 the alternate one (requires Config.AltRouting). The
	// dual-path defense sends each power request once per class.
	Class int

	// InjectedAt and DeliveredAt are kernel cycles for latency accounting.
	InjectedAt  uint64
	DeliveredAt uint64
	// Hops counts router-to-router traversals.
	Hops int

	// Tampered is set by a hardware Trojan when it rewrites Payload.
	// HTSeen is set when the packet crosses any active, configured Trojan
	// that matched its destination, whether or not the payload changed —
	// this is the quantity the paper's "infection rate" measures.
	// LoopedBack marks a packet bounced home by a routing-loop Trojan.
	// OriginalPayload preserves the pre-attack value. These fields are
	// measurement instrumentation; the victim hardware cannot see them.
	Tampered        bool
	HTSeen          bool
	LoopedBack      bool
	OriginalPayload uint32

	// rx counts flits ejected at the destination so far; the network resets
	// it at injection and uses it for the wormhole conservation check.
	rx int

	// dlDim and dlCrossed are the dateline VC-management state used on
	// wraparound topologies: the dimension the packet is currently routing
	// in and whether it has crossed that dimension's wraparound link. The
	// network resets both at injection.
	dlDim     int8
	dlCrossed bool
}

// Table I flit-size accounting: a 72-bit flit; data packets are 5 flits and
// meta packets 1 flit.
const (
	// FlitBits is the NoC flit width from Table I.
	FlitBits = 72
	// DataPacketFlits is the Table I data-packet size.
	DataPacketFlits = 5
	// MetaPacketFlits is the Table I meta-packet size.
	MetaPacketFlits = 1
)

// FlitCount returns the number of flits this packet serialises into.
func (p *Packet) FlitCount() int {
	if p.Type.IsData() {
		return DataPacketFlits
	}
	// Meta packets grow only if the optional field is used.
	n := MetaPacketFlits
	if len(p.Options) > 0 {
		bits := 96 + 32*len(p.Options) // src+dst+type+payload + options
		n = (bits + FlitBits - 1) / FlitBits
	}
	return n
}

// ConfigWord packs the Fig 1(b) CONFIG_CMD type word: the low byte is the
// opcode (implied by TypeConfigCmd), bits 8..23 carry the global manager ID
// and bit 24 the activation signal.
func ConfigWord(globalManager NodeID, active bool) uint32 {
	w := uint32(globalManager&0xFFFF) << 8
	if active {
		w |= 1 << 24
	}
	return w
}

// ParseConfigWord unpacks a CONFIG_CMD payload produced by ConfigWord.
func ParseConfigWord(w uint32) (globalManager NodeID, active bool) {
	return NodeID((w >> 8) & 0xFFFF), w&(1<<24) != 0
}
