// Package interconnect models the off-chip fabric of the secure multi-GPU
// system: the shared PCIe bus between the CPU and the GPUs and the
// NVLink-like point-to-point GPU-GPU links (Figure 2 and Table III of the
// paper). It provides latency+bandwidth link models with per-stage
// serialization (sender NIC, wire, receiver NIC) and the byte accounting
// behind the paper's traffic results (Figures 11, 12, and 23).
package interconnect

import (
	"fmt"
	"unsafe"
)

// NodeID identifies a processor on the fabric. The CPU is node 0 and GPUs
// are numbered from 1, matching the paper's "CPU and 3 GPUs" peer counting.
type NodeID int

// CPUNode is the host CPU's fabric identity.
const CPUNode NodeID = 0

// IsCPU reports whether the node is the host CPU.
func (n NodeID) IsCPU() bool { return n == CPUNode }

// String names the node as the paper does ("CPU", "GPU1", ...).
func (n NodeID) String() string {
	if n.IsCPU() {
		return "CPU"
	}
	return fmt.Sprintf("GPU%d", int(n))
}

// Category classifies a message's bytes for traffic accounting. A byte,
// like Kind, so the two pack with Message's flags into one word.
type Category uint8

const (
	// CatData covers messages that exist in the unsecure baseline: block
	// read requests/responses, write requests, and page-migration chunks.
	CatData Category = iota
	// CatControl covers baseline control messages (write completions,
	// migration control).
	CatControl
	// CatSecACK covers the replay-protection acknowledgments that exist
	// only in the secure system.
	CatSecACK
	// CatBatchMAC covers standalone Batched_MsgMAC messages produced by
	// the metadata batching mechanism.
	CatBatchMAC
	// CatMemProt covers CPU-side memory-protection metadata traffic
	// (counters/MACs for the untrusted host DRAM).
	CatMemProt
	// CatResync covers counter-resynchronization and rekeying handshake
	// messages (RESYNC requests and their acknowledgments).
	CatResync

	numCategories
)

// String returns the accounting label for the category.
func (c Category) String() string {
	switch c {
	case CatData:
		return "data"
	case CatControl:
		return "control"
	case CatSecACK:
		return "sec-ack"
	case CatBatchMAC:
		return "batch-mac"
	case CatMemProt:
		return "mem-prot"
	case CatResync:
		return "resync"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Kind enumerates the protocol-level message types carried by the fabric.
type Kind uint8

const (
	// KindReadReq asks a remote home node for one 64B block.
	KindReadReq Kind = iota
	// KindDataResp carries one 64B block back to the requester.
	KindDataResp
	// KindWriteReq carries one 64B block of write data to the home node.
	KindWriteReq
	// KindWriteAck confirms a write at the home node.
	KindWriteAck
	// KindMigrChunk carries one 64B chunk of a migrating page.
	KindMigrChunk
	// KindMigrReq asks a page's owner to migrate it to the requester.
	KindMigrReq
	// KindMigrDone signals that every chunk of a migration was sent.
	KindMigrDone
	// KindSecACK is the replay-protection acknowledgment echoing a
	// MsgMAC/MsgCTR back to the data sender.
	KindSecACK
	// KindBatchMAC carries a Batched_MsgMAC covering n data blocks.
	KindBatchMAC
	// KindSecNACK is the receiver's retransmit request: the identified
	// batch (or conventional block) arrived incomplete or failed
	// verification and should be re-sent under fresh counters.
	KindSecNACK
	// KindPoisoned tells a peer that the sender has given up on a data
	// block after exhausting retransmissions; the peer fails the affected
	// operation instead of waiting forever. It rides the lossless control
	// plane so the simulation always drains.
	KindPoisoned
	// KindSecResync initiates the counter-resynchronization (or rekeying)
	// handshake: the sender proposes a fresh counter base for the pair. It
	// carries a security envelope, so outages and faults hit it like any
	// other protected message — the handshake has its own retry loop.
	KindSecResync
	// KindSecResyncAck accepts a RESYNC proposal, echoing the sequence
	// number and counter base the receiver installed.
	KindSecResyncAck
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindReadReq:
		return "read-req"
	case KindDataResp:
		return "data-resp"
	case KindWriteReq:
		return "write-req"
	case KindWriteAck:
		return "write-ack"
	case KindMigrChunk:
		return "migr-chunk"
	case KindMigrReq:
		return "migr-req"
	case KindMigrDone:
		return "migr-done"
	case KindSecACK:
		return "sec-ack"
	case KindBatchMAC:
		return "batch-mac"
	case KindSecNACK:
		return "sec-nack"
	case KindPoisoned:
		return "poisoned"
	case KindSecResync:
		return "sec-resync"
	case KindSecResyncAck:
		return "sec-resync-ack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Message is one packet on the fabric. BaseBytes are the bytes the unsecure
// baseline would also send; MetaBytes are added by the protection mechanism
// (inline MsgCTR/MsgMAC/sender ID, whole ACK and Batched_MsgMAC packets, and
// memory-protection metadata). Splitting the two is what lets the traffic
// experiments report "extra traffic from security" exactly.
type Message struct {
	Kind     Kind
	Category Category

	// Corrupted marks a message damaged in flight by the fault profile.
	// Functional runs also flip a ciphertext bit so real MAC verification
	// fails; timing-only runs use the flag itself to model detection.
	Corrupted bool

	// pooled/retained drive the delivery-time free protocol; see
	// Fabric.AcquireMessage. They sit beside Kind and Category so the
	// five one-byte fields share a word.
	pooled   bool
	retained bool

	Src, Dst NodeID

	// BaseBytes + MetaBytes + MemProtBytes is the wire size used for
	// serialization. MemProtBytes carries CPU-side memory-protection
	// metadata piggybacked on the message (accounted under CatMemProt
	// even when inline).
	BaseBytes    int
	MetaBytes    int
	MemProtBytes int

	// ReqID correlates responses and ACKs with the originating operation.
	ReqID uint64
	// Addr is the block address the message concerns, if any.
	Addr uint64

	// Sec carries the security envelope (counter, MAC, batch info). It is
	// nil on unsecured messages.
	Sec *SecEnvelope

	// next links the message into its fabric's free list.
	next *Message

	// secBuf is the inline envelope AttachSec points Sec at, so a pooled
	// message carries its security metadata without a second allocation.
	secBuf SecEnvelope
	// cipher is the ciphertext block CipherBuf exposes; one data block
	// fits exactly (CipherBlockBytes = the 64B block size). It is
	// allocated on a message's first CipherBuf call and stays with the
	// message across frees, so timing runs, which never seal, do not
	// carry 64 bytes per message they never use.
	cipher *[CipherBlockBytes]byte
}

// CipherBlockBytes is the ciphertext capacity of a Message. It must
// equal crypto.BlockBytes (asserted at compile time in internal/secure).
const CipherBlockBytes = 64

// messageBytes is the size of one Message (the 176-byte size class; a
// message that sealed a block holds 64 more in its cipher block), which
// the retention cap of a parked free list is sized by.
const messageBytes = int(unsafe.Sizeof(Message{}))

// Retain transfers ownership of a delivered message to the receiver: the
// fabric will not free it after Deliver returns, and the receiver must
// hand it back with Fabric.FreeMessage when finished.
func (m *Message) Retain() { m.retained = true }

// Retained reports whether a receiver took ownership via Retain.
func (m *Message) Retained() bool { return m.retained }

// Clone returns an unpooled deep copy: the envelope and ciphertext are
// owned by the copy, so it stays valid after the original is freed.
// Fault duplication and attack replay use it to re-inject messages whose
// originals have independent lifetimes.
func (m *Message) Clone() *Message {
	c := new(Message)
	*c = *m
	c.pooled, c.retained, c.next, c.cipher = false, false, nil, nil
	if m.Sec != nil {
		c.secBuf = *m.Sec
		c.Sec = &c.secBuf
		if len(m.Sec.Ciphertext) > 0 {
			c.Sec.Ciphertext = append([]byte(nil), m.Sec.Ciphertext...)
		}
	}
	return c
}

// AttachSec points Sec at the message's inline envelope storage and
// returns it zeroed. Senders use it instead of allocating a SecEnvelope
// per protected message.
func (m *Message) AttachSec() *SecEnvelope {
	m.secBuf = SecEnvelope{}
	m.Sec = &m.secBuf
	return m.Sec
}

// CipherBuf returns the message's ciphertext block, for seal() to
// encrypt into without a per-message allocation once the message has
// been through a free list. The block may hold an earlier use's bytes:
// callers overwrite what they use. The buffer's lifetime is the
// message's: it is no longer the caller's when the message is freed.
func (m *Message) CipherBuf() []byte {
	if m.cipher == nil {
		m.cipher = new([CipherBlockBytes]byte)
	}
	return m.cipher[:]
}

// Size returns the total wire size in bytes.
func (m *Message) Size() int { return m.BaseBytes + m.MetaBytes + m.MemProtBytes }

// SecEnvelope is the security metadata travelling with a protected message
// (Section II-C: MsgCTR, MsgMAC, sender ID; Section IV-C: batch fields).
type SecEnvelope struct {
	// MsgCTR is the counter-mode message counter used to derive the OTP.
	MsgCTR uint64
	// MAC is the (possibly truncated) message authentication code.
	MAC [8]byte
	// SenderID travels with the ciphertext for pad derivation.
	SenderID NodeID

	// BatchClass selects the batching stream: 0 for direct block access
	// (n=16), 1 for page migration (n=64). The two streams keep separate
	// MsgMAC storages, matching the paper's max(16, 64) sizing.
	BatchClass int
	// BatchID groups the blocks covered by one Batched_MsgMAC.
	BatchID uint64
	// BatchIndex is this block's position within its batch.
	BatchIndex int
	// BatchLen is the batch length, carried on the first request of each
	// batch (the paper's 1B length field); zero elsewhere.
	BatchLen int

	// Ciphertext is the encrypted payload when functional encryption is
	// enabled; nil in pure timing runs.
	Ciphertext []byte
}
