// Package config defines the simulated system configuration from Table III
// of the paper, the OTP buffer-management scheme selection, and the sizing
// rules behind Table I (on-chip OTP storage overhead).
package config

import (
	"fmt"
)

// OTPScheme selects the OTP buffer management policy (Section II-C and IV-B).
type OTPScheme int

const (
	// OTPPrivate keeps per (peer, direction) pad entries with perfectly
	// synchronized counters (Figure 7a).
	OTPPrivate OTPScheme = iota
	// OTPShared keeps a single shared send counter; receive pads are valid
	// only for back-to-back sends from the same source (Figure 7b).
	OTPShared
	// OTPCached keeps an LRU cache of per-pair entries: Private behaviour
	// on hit, on-demand generation on miss (Figure 7c).
	OTPCached
	// OTPDynamic is the paper's contribution: the pad budget is
	// re-partitioned every interval T using EWMA-monitored communication
	// patterns (Section IV-B, Formulas 1-4).
	OTPDynamic
	// OTPOracle is an unimplementable upper bound whose pads are always
	// ready, used by ablations to separate pad stalls from metadata
	// bandwidth.
	OTPOracle
)

// String returns the paper's name for the scheme.
func (s OTPScheme) String() string {
	switch s {
	case OTPPrivate:
		return "Private"
	case OTPShared:
		return "Shared"
	case OTPCached:
		return "Cached"
	case OTPDynamic:
		return "Dynamic"
	case OTPOracle:
		return "Oracle"
	default:
		return fmt.Sprintf("OTPScheme(%d)", int(s))
	}
}

// OTPEntryBits is the storage cost of one OTP buffer entry: a valid bit, a
// 512-bit encryption pad, a 128-bit authentication pad, and a 64-bit counter
// (Section IV-D).
const OTPEntryBits = 1 + 512 + 128 + 64

// MaxGPUs is the largest GPU count a system may have: a trace op names its
// home node in one byte (workload.Op.Home), as a page ID names its
// requester.
const MaxGPUs = 255

// Config describes one simulated secure multi-GPU system.
type Config struct {
	// NumGPUs is the GPU count (the paper evaluates 4, 8, and 16; Table I
	// also sizes 32).
	NumGPUs int
	// OTPMultiplier is N in the paper's "OTP Nx": pad entries per
	// (source, destination, direction) pair under Private.
	OTPMultiplier int

	// Secure enables authenticated encryption of all CPU-GPU and GPU-GPU
	// transfers. When false the system is the unsecure baseline.
	Secure bool
	// Scheme selects the OTP buffer management policy (meaningful only
	// when Secure).
	Scheme OTPScheme
	// Batching enables the security metadata batching contribution
	// (Section IV-C).
	Batching bool
	// MetadataTraffic models the bandwidth consumed by security metadata
	// (MsgCTR, MsgMAC, sender ID, ACK). Disabling it isolates the pure
	// encryption-latency overhead (the "+SecureCommu" bar of Figure 11).
	MetadataTraffic bool
	// CPUMemProtection models the extra traffic for protecting untrusted
	// CPU-side DRAM (part of the Figure 12 stack).
	CPUMemProtection bool

	// AESGCMLatency is the authenticated en/decryption pad-generation
	// latency in cycles (40 in Table III; Figure 26 sweeps 10-40).
	AESGCMLatency uint64

	// PCIeBandwidth is the CPU-GPU link bandwidth in bytes/cycle at 1 GHz
	// (PCIe-v4, 32 GB/s -> 32 B/cycle).
	PCIeBandwidth float64
	// NVLinkBandwidth is the GPU-GPU link bandwidth in bytes/cycle
	// (NVLink2-like, 50 GB/s -> 50 B/cycle).
	NVLinkBandwidth float64
	// GPUNICBandwidth is each GPU's aggregate injection/ejection bandwidth
	// across all of its links, in bytes/cycle. It models the fixed number
	// of NVLink ports a real GPU has and is what makes contention grow
	// with GPU count.
	GPUNICBandwidth float64
	// PCIeLatency and NVLinkLatency are one-way propagation latencies in
	// cycles.
	PCIeLatency   uint64
	NVLinkLatency uint64
	// MsgOverheadCycles is the fixed per-message NIC occupancy
	// (packetization/flit framing); it is what makes the per-block ACK and
	// MsgMAC packets of the conventional scheme expensive in messages, not
	// just bytes.
	MsgOverheadCycles uint64

	// OutstandingRequests bounds in-flight remote requests per GPU,
	// modeling the remote-access engine's request window.
	OutstandingRequests int

	// Alpha is the EWMA forgetting rate for the send/receive direction
	// split (0.9 in Table III).
	Alpha float64
	// Beta is the EWMA forgetting rate for per-destination shares
	// (0.5 in Table III).
	Beta float64
	// IntervalT is the monitoring/adjustment period in cycles (1000).
	IntervalT uint64

	// BatchSize is n, the number of 64B data blocks whose MACs are
	// aggregated into one Batched_MsgMAC (16 in the paper).
	BatchSize int
	// BatchFlushTimeout closes a partially filled batch after this many
	// cycles so trailing blocks are never stranded.
	BatchFlushTimeout uint64

	// BlockSize is the coherence/transfer granularity in bytes (64).
	BlockSize int
	// PageSize is the migration granularity in bytes (4096).
	PageSize int
	// MigrationThreshold is the access count after which a remote page is
	// migrated to the accessor (access-counter policy, Volta-like).
	MigrationThreshold int
	// ModelTLB enables the address-translation hierarchy (L1/L2 TLB +
	// IOMMU walks, Section II-A). Off by default: the paper holds
	// translation behaviour constant across schemes; the TLB ablation
	// turns it on.
	ModelTLB bool
	// SwitchTopology routes GPU-GPU traffic through a central NVSwitch-like
	// crossbar instead of direct point-to-point links. Off by default
	// (the paper's Figure 2 draws direct links).
	SwitchTopology bool
	// CUsPerGPU, when positive, shards each GPU's trace across that many
	// compute units with per-CU wavefront windows instead of the default
	// flat per-GPU window (ablation A8). OutstandingRequests is divided
	// evenly among the CUs.
	CUsPerGPU int

	// Faults injects seeded per-link loss/corruption/duplication into the
	// fabric's secure-channel traffic (the robustness experiments). The
	// zero value is a perfect fabric.
	Faults FaultProfile

	// Outages injects seeded whole-link down/up windows and transient node
	// resets that blackhole protected traffic for sustained periods —
	// distinct from Faults, which hits individual messages. The zero value
	// is an always-up fabric.
	Outages OutageProfile

	// A secure system always runs the secure channel's NACK/retransmission
	// protocol: per-batch ACK timers with bounded retries, receiver-side
	// stale-batch NACKs, and batch poisoning after max retries. It lets a
	// secure system make progress on a lossy fabric and is a behavioral
	// no-op on a perfect one (no ACK timer fires).
	//
	// RetransTimeout is the sender's base ACK timeout in cycles; retries
	// back off exponentially from it.
	RetransTimeout uint64
	// RetransMaxRetries bounds retransmission attempts per batch before it
	// is poisoned.
	RetransMaxRetries int
	// StaleBatchTimeout is how long the receiver holds an incomplete batch
	// before NACKing and abandoning it.
	StaleBatchTimeout uint64

	// ResyncThreshold is the per-peer failure streak (NACKs received plus
	// ACK timeouts without an intervening clean ACK) after which the sender
	// suspects counter desync and initiates a RESYNC handshake. Zero
	// disables resync.
	ResyncThreshold int
	// RekeyEpoch is the per-pair counter span of one key epoch: when a
	// send counter crosses the next multiple of it, the sender drains
	// in-flight units and rotates to a fresh epoch via a rekeying RESYNC.
	// The default (1<<40) never triggers at simulation scale, so healthy
	// runs are unaffected. Zero disables rekeying.
	RekeyEpoch uint64
	// WatchdogInterval arms the simulation watchdog: if the engine advances
	// this many cycles with no protected payload completing anywhere, the
	// run is failed loudly with a structured diagnosis instead of spinning.
	// The watchdog is only scheduled when Faults or Outages are active, so
	// fault-free event orderings (and golden digests) are untouched. Zero
	// disables it.
	WatchdogInterval uint64

	// Seed drives all workload randomness; runs are fully deterministic.
	Seed int64
	// Scale multiplies workload op counts (1.0 = full evaluation size).
	Scale float64
}

// FaultProfile models a lossy interconnect: every secure-channel message
// (one carrying a security envelope — data blocks, SecACKs/NACKs, and
// Batched_MsgMACs) is independently dropped, corrupted, or duplicated with
// the given per-message probabilities. Faults are drawn from a per-link
// generator seeded by (Seed, src, dst), so runs are fully deterministic and
// each link's fault sequence is independent of the others. The struct is a
// flat value so Config stays comparable (the sweep cache keys on it).
type FaultProfile struct {
	// DropRate is the probability a message vanishes from the wire.
	DropRate float64
	// CorruptRate is the probability a message's payload is flipped.
	CorruptRate float64
	// DuplicateRate is the probability a second copy arrives later.
	DuplicateRate float64
	// Seed drives the per-link fault generators.
	Seed int64
}

// Active reports whether the profile injects any faults.
func (f FaultProfile) Active() bool {
	return f.DropRate > 0 || f.CorruptRate > 0 || f.DuplicateRate > 0
}

// Validate reports the first fault-profile error found.
func (f FaultProfile) Validate() error {
	switch {
	case f.DropRate < 0 || f.DropRate > 1:
		return fmt.Errorf("config: fault DropRate %v outside [0,1]", f.DropRate)
	case f.CorruptRate < 0 || f.CorruptRate > 1:
		return fmt.Errorf("config: fault CorruptRate %v outside [0,1]", f.CorruptRate)
	case f.DuplicateRate < 0 || f.DuplicateRate > 1:
		return fmt.Errorf("config: fault DuplicateRate %v outside [0,1]", f.DuplicateRate)
	case f.DropRate+f.CorruptRate+f.DuplicateRate > 1:
		return fmt.Errorf("config: fault rates sum to %v > 1", f.DropRate+f.CorruptRate+f.DuplicateRate)
	}
	return nil
}

// OutageProfile models sustained fabric outages: whole links going dark
// for a window of cycles and nodes transiently resetting (blackholing all
// their protected traffic). Windows are drawn from per-link / per-node
// exponential distributions seeded by (Seed, endpoints), so runs are fully
// deterministic. Like FaultProfile, only messages carrying a security
// envelope are affected: the baseline control plane stays lossless so the
// simulation itself can always drain. The struct is a flat value so Config
// stays comparable (the sweep cache keys on it).
type OutageProfile struct {
	// LinkMTBF is the mean number of cycles between outages on each
	// undirected link (exponentially distributed). Zero disables link
	// outages.
	LinkMTBF uint64
	// LinkOutage is the mean outage duration in cycles.
	LinkOutage uint64
	// NodeMTBF is the mean number of cycles between transient resets of
	// each node (exponentially distributed). Zero disables node outages.
	NodeMTBF uint64
	// NodeOutage is the mean reset duration in cycles.
	NodeOutage uint64
	// Seed drives the per-link and per-node outage generators.
	Seed int64
}

// Active reports whether the profile injects any outages.
func (o OutageProfile) Active() bool {
	return (o.LinkMTBF > 0 && o.LinkOutage > 0) || (o.NodeMTBF > 0 && o.NodeOutage > 0)
}

// Validate reports the first outage-profile error found.
func (o OutageProfile) Validate() error {
	switch {
	case o.LinkMTBF > 0 && o.LinkOutage == 0:
		return fmt.Errorf("config: outage LinkMTBF set but LinkOutage is zero")
	case o.LinkOutage > 0 && o.LinkMTBF == 0:
		return fmt.Errorf("config: outage LinkOutage set but LinkMTBF is zero")
	case o.NodeMTBF > 0 && o.NodeOutage == 0:
		return fmt.Errorf("config: outage NodeMTBF set but NodeOutage is zero")
	case o.NodeOutage > 0 && o.NodeMTBF == 0:
		return fmt.Errorf("config: outage NodeOutage set but NodeMTBF is zero")
	case o.LinkMTBF > 0 && o.LinkOutage >= o.LinkMTBF:
		return fmt.Errorf("config: outage LinkOutage %d >= LinkMTBF %d; the link would be down more than up", o.LinkOutage, o.LinkMTBF)
	case o.NodeMTBF > 0 && o.NodeOutage >= o.NodeMTBF:
		return fmt.Errorf("config: outage NodeOutage %d >= NodeMTBF %d; the node would be down more than up", o.NodeOutage, o.NodeMTBF)
	}
	return nil
}

// Default returns the Table III configuration for the given GPU count with
// the unsecure baseline selected.
func Default(numGPUs int) Config {
	return Config{
		NumGPUs:             numGPUs,
		OTPMultiplier:       4,
		Secure:              false,
		Scheme:              OTPPrivate,
		Batching:            false,
		MetadataTraffic:     true,
		CPUMemProtection:    true,
		AESGCMLatency:       40,
		PCIeBandwidth:       32,
		NVLinkBandwidth:     50,
		GPUNICBandwidth:     150,
		PCIeLatency:         400,
		NVLinkLatency:       100,
		MsgOverheadCycles:   1,
		OutstandingRequests: 192,
		Alpha:               0.9,
		Beta:                0.5,
		IntervalT:           1000,
		BatchSize:           16,
		BatchFlushTimeout:   200,
		BlockSize:           64,
		PageSize:            4096,
		MigrationThreshold:  64,
		RetransTimeout:      50_000,
		RetransMaxRetries:   6,
		StaleBatchTimeout:   25_000,
		ResyncThreshold:     3,
		RekeyEpoch:          1 << 40,
		WatchdogInterval:    2_000_000,
		Seed:                1,
		Scale:               1.0,
	}
}

// Validate reports the first configuration error found.
func (c Config) Validate() error {
	switch {
	case c.NumGPUs < 2:
		return fmt.Errorf("config: NumGPUs %d < 2; a multi-GPU system needs at least two GPUs", c.NumGPUs)
	case c.NumGPUs > MaxGPUs:
		return fmt.Errorf("config: NumGPUs %d > %d; a trace op names its home node in one byte", c.NumGPUs, MaxGPUs)
	case c.OTPMultiplier < 1:
		return fmt.Errorf("config: OTPMultiplier %d < 1", c.OTPMultiplier)
	case c.Secure && c.AESGCMLatency == 0:
		return fmt.Errorf("config: secure system needs a positive AESGCMLatency")
	case c.PCIeBandwidth <= 0 || c.NVLinkBandwidth <= 0 || c.GPUNICBandwidth <= 0:
		return fmt.Errorf("config: link bandwidths must be positive")
	case c.OutstandingRequests < 1:
		return fmt.Errorf("config: OutstandingRequests %d < 1", c.OutstandingRequests)
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("config: Alpha %v outside [0,1]", c.Alpha)
	case c.Beta < 0 || c.Beta > 1:
		return fmt.Errorf("config: Beta %v outside [0,1]", c.Beta)
	case c.IntervalT == 0:
		return fmt.Errorf("config: IntervalT must be positive")
	case c.BatchSize < 1:
		return fmt.Errorf("config: BatchSize %d < 1", c.BatchSize)
	case c.BlockSize < 1 || c.PageSize < c.BlockSize || c.PageSize%c.BlockSize != 0:
		return fmt.Errorf("config: PageSize %d must be a positive multiple of BlockSize %d", c.PageSize, c.BlockSize)
	case c.Scale <= 0:
		return fmt.Errorf("config: Scale %v must be positive", c.Scale)
	case c.Secure && (c.RetransTimeout == 0 || c.RetransMaxRetries < 1 || c.StaleBatchTimeout == 0):
		return fmt.Errorf("config: a secure system needs positive RetransTimeout, RetransMaxRetries, and StaleBatchTimeout")
	case c.Outages.Active() && c.Secure && c.ResyncThreshold < 1:
		return fmt.Errorf("config: a secure system on an outage-prone fabric needs a positive ResyncThreshold to recover counter sync")
	case c.ResyncThreshold < 0:
		return fmt.Errorf("config: ResyncThreshold %d < 0", c.ResyncThreshold)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Outages.Validate()
}

// NumProcessors is the total processor count: the GPUs plus the host CPU.
func (c Config) NumProcessors() int { return c.NumGPUs + 1 }

// PeersPerProcessor is the number of communication partners each processor
// has. For a GPU that is the other GPUs plus the CPU, i.e. NumGPUs peers
// (matching the paper's "4 (3 GPUs + 1 CPU)" accounting).
func (c Config) PeersPerProcessor() int { return c.NumGPUs }

// OTPEntriesPerGPU is the total pad-table entries each GPU holds: peers x
// two directions x the multiplier. Every scheme is given this same budget,
// as in the paper's iso-storage comparison.
func (c Config) OTPEntriesPerGPU() int {
	return c.PeersPerProcessor() * 2 * c.OTPMultiplier
}

// TotalOTPEntries is the system-wide entry count reported in Table I
// (GPU-side tables only, as the paper counts).
func (c Config) TotalOTPEntries() int { return c.NumGPUs * c.OTPEntriesPerGPU() }

// OTPStorageKB is the system-wide on-chip OTP storage in kilobytes, using
// the 705-bit entry from Section IV-D. For 4 GPUs at 1x this is the paper's
// 2.75 KB.
func (c Config) OTPStorageKB() float64 {
	bits := float64(c.TotalOTPEntries()) * OTPEntryBits
	return bits / 8 / 1024
}

// MACStorageBytesPerGPU is the receiver-side MsgMAC storage for batching:
// max(16, 64) MACs x peers x 8B (Section IV-D; 2 KB for 4 GPUs).
func (c Config) MACStorageBytesPerGPU() int {
	macsPerPeer := c.PageSize / c.BlockSize // 64, the page-migration batch
	if macsPerPeer < c.BatchSize {
		macsPerPeer = c.BatchSize
	}
	return macsPerPeer * c.PeersPerProcessor() * 8
}
