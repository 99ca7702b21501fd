// Package packet defines the on-air messages of the dissemination
// protocols: the SPIN/SPMS three-way handshake packets (ADV, REQ, DATA) and
// the metadata naming scheme. Sizes default to Table 1 of the paper:
// ADV and REQ are 2 bytes; DATA is 20× a REQ, i.e. 40 bytes.
package packet

import (
	"fmt"

	"repro/internal/radio"
)

// NodeID identifies a sensor node. IDs are dense indices assigned by the
// field builder, starting at 0.
type NodeID int

// Broadcast is the destination address for zone-wide broadcasts.
const Broadcast NodeID = -1

// None marks an unset node reference (e.g. no SCONE yet).
const None NodeID = -2

// Kind enumerates the handshake packet types.
type Kind int

// Packet kinds. ADV advertises metadata, REQ requests the named data, DATA
// carries it. CTRL covers routing-protocol traffic (Bellman-Ford updates),
// which shares the radio but not the handshake state machines. QRY is the
// inter-zone query of the paper's §6 extension (zone-routing bordercast).
const (
	ADV Kind = iota + 1
	REQ
	DATA
	CTRL
	QRY
)

// NumKinds is one past the largest Kind value, sized for direct array
// indexing by kind (index 0 is unused since kinds start at 1).
const NumKinds = int(QRY) + 1

// String returns the conventional protocol name of the kind.
func (k Kind) String() string {
	switch k {
	case ADV:
		return "ADV"
	case REQ:
		return "REQ"
	case DATA:
		return "DATA"
	case CTRL:
		return "CTRL"
	case QRY:
		return "QRY"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Sizes holds the byte sizes of the handshake packets.
type Sizes struct {
	ADV  int
	REQ  int
	DATA int
}

// DefaultSizes returns Table 1's packet sizes: 2-byte ADV/REQ and a DATA
// packet 20× the REQ size.
func DefaultSizes() Sizes {
	return Sizes{ADV: 2, REQ: 2, DATA: 40}
}

// Of returns the size in bytes for a packet kind. CTRL and QRY packets use
// the REQ size: distance-vector entries and query headers are comparably
// small (a QRY additionally carries its trail; callers size that
// explicitly).
func (s Sizes) Of(k Kind) int {
	switch k {
	case ADV:
		return s.ADV
	case REQ:
		return s.REQ
	case DATA:
		return s.DATA
	case CTRL, QRY:
		return s.REQ
	default:
		panic(fmt.Sprintf("packet: size of unknown kind %v", k))
	}
}

// Validate checks the sizes are usable.
func (s Sizes) Validate() error {
	if s.ADV <= 0 || s.REQ <= 0 || s.DATA <= 0 {
		return fmt.Errorf("packet: sizes must be positive: %+v", s)
	}
	return nil
}

// DataID names a data item: the node that sensed it plus a per-origin
// sequence number. This is the paper's "meta-data" — a descriptor that
// uniquely identifies the data so nodes can negotiate without transferring
// the payload.
type DataID struct {
	Origin NodeID
	Seq    int
}

// String formats the metadata descriptor.
func (d DataID) String() string { return fmt.Sprintf("d%d.%d", d.Origin, d.Seq) }

// Key packs the DataID into a single word: the key of the ledger's item
// table (dissem.Ledger.Index, resolved on every packet) and of the cold
// per-node maps, where Go's map has a fast path for 8-byte keys that the
// 16-byte struct key misses. Origin is a dense field index and Seq a
// per-origin counter, both non-negative and far below 2³², so the packing
// is collision-free.
func (d DataID) Key() uint64 { return uint64(uint32(d.Origin))<<32 | uint64(uint32(d.Seq)) }

// Packet is one on-air frame. Src and Dst are the immediate-hop addresses
// (Dst may be Broadcast). Requester and Provider carry the end-to-end
// addressing for multi-hop REQ/DATA relaying in SPMS:
//
//   - For a REQ, Requester is the node that wants the data and Provider is
//     the node the request is ultimately addressed to (PRONE or source).
//   - For a DATA, Provider is the node that served the request and Requester
//     the node the data is being delivered to.
type Packet struct {
	Kind      Kind
	Meta      DataID
	Src       NodeID // transmitting node of this hop
	Dst       NodeID // immediate destination (or Broadcast)
	Requester NodeID // end-to-end requesting node (REQ/DATA)
	Provider  NodeID // end-to-end providing node (REQ/DATA)
	Level     radio.Level
	Bytes     int

	// Trail is the forwarding path accumulated by an inter-zone QRY (§6
	// extension) and consumed, in reverse, by its source-routed DATA reply.
	// Forwarders must copy-on-extend: the slice is shared across hops.
	Trail []NodeID
	// QuerySeq distinguishes retries of the same inter-zone query so
	// forwarders' duplicate suppression does not swallow a re-query.
	QuerySeq int
}

// String formats the packet for traces and test failures.
func (p Packet) String() string {
	return fmt.Sprintf("%s(%s) %d->%d [req=%d prov=%d lvl=%d %dB]",
		p.Kind, p.Meta, p.Src, p.Dst, p.Requester, p.Provider, p.Level, p.Bytes)
}
