// Package crypto implements the counter-mode authenticated encryption the
// paper layers over inter-processor communication (Section II-C, Figure 4),
// in two halves:
//
//   - Functional: real AES-CTR one-time pads and a GF(2^128) GHASH-style MAC,
//     so the channel's encrypt/decrypt/authenticate/replay logic can be
//     verified end to end (ciphertext roundtrips, tampering detection).
//   - Timing: a fully pipelined AES-GCM engine model (40-cycle latency,
//     one pad per cycle throughput, Table III) used by the OTP buffer
//     schemes to decide hit / partially hidden / miss outcomes.
//
// A pad is derived solely from (session key, MsgCTR, sender ID, receiver ID),
// never from the data, which is exactly what makes pre-generation possible.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
)

// BlockBytes is the data transfer granularity protected by one pad (a 64B
// cache block).
const BlockBytes = 64

// EncPadBytes is the encryption pad size: 512 bits covering one block.
const EncPadBytes = 64

// AuthPadBytes is the authentication pad size: 128 bits (Section IV-D).
const AuthPadBytes = 16

// MACBytes is the truncated MsgMAC size carried on the wire (8B, matching
// the paper's metadata accounting).
const MACBytes = 8

// Pad is one pre-generatable one-time pad pair.
type Pad struct {
	Enc  [EncPadBytes]byte
	Auth [AuthPadBytes]byte
}

// PadGenerator derives pads for one session key shared at boot between the
// processors (Section IV-A). It is deterministic: the same
// (key, ctr, sender, receiver) always yields the same pad, which is what
// keeps sender and receiver in sync.
//
// Generate is not safe for concurrent use: each secure endpoint owns its
// generator and drives it from its simulation's one goroutine.
type PadGenerator struct {
	block cipher.Block
	h     fieldElement // GHASH key H = AES_K(0^128)

	// seed and pad are Generate's AES input and output. Buffers passed
	// through the cipher.Block interface escape, so keeping them here
	// rather than on the stack saves two allocations per pad.
	seed [16]byte
	pad  Pad
}

// NewPadGenerator creates a generator from a 16-byte session key.
func NewPadGenerator(key []byte) (*PadGenerator, error) {
	if len(key) != 16 {
		return nil, fmt.Errorf("crypto: session key must be 16 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	var zero, h [16]byte
	block.Encrypt(h[:], zero[:])
	return &PadGenerator{block: block, h: gfElement(h)}, nil
}

// seedBlock lays out the unique seed of Figure 4: message counter, sender ID,
// receiver ID, and a lane index selecting among the pad's AES blocks.
func seedBlock(dst *[16]byte, ctr uint64, sender, receiver uint16, lane uint8) {
	binary.BigEndian.PutUint64(dst[0:8], ctr)
	binary.BigEndian.PutUint16(dst[8:10], sender)
	binary.BigEndian.PutUint16(dst[10:12], receiver)
	dst[12] = lane
	dst[13], dst[14], dst[15] = 0, 0, 0
}

// Generate derives the pad for one (ctr, sender, receiver) triple. Lanes 0-3
// form the 64B encryption pad; lane 4 is the authentication pad.
func (g *PadGenerator) Generate(ctr uint64, sender, receiver uint16) Pad {
	for lane := 0; lane < 4; lane++ {
		seedBlock(&g.seed, ctr, sender, receiver, uint8(lane))
		g.block.Encrypt(g.pad.Enc[lane*16:(lane+1)*16], g.seed[:])
	}
	seedBlock(&g.seed, ctr, sender, receiver, 4)
	g.block.Encrypt(g.pad.Auth[:], g.seed[:])
	return g.pad
}

// Encrypt XORs a 64B plaintext block with the encryption pad. Counter-mode
// is an involution, so Encrypt also decrypts.
func Encrypt(dst, src []byte, pad *Pad) {
	if len(src) != BlockBytes || len(dst) != BlockBytes {
		panic(fmt.Sprintf("crypto: Encrypt needs %dB blocks, got dst=%d src=%d", BlockBytes, len(dst), len(src)))
	}
	for i := range src {
		dst[i] = src[i] ^ pad.Enc[i]
	}
}

// MAC computes the truncated message authentication code over a ciphertext
// block: a GHASH-style polynomial hash keyed by H, masked with the
// authentication pad so the MAC is unique per message counter.
func (g *PadGenerator) MAC(ciphertext []byte, pad *Pad) [MACBytes]byte {
	digest := g.ghash(ciphertext)
	var out [MACBytes]byte
	for i := 0; i < MACBytes; i++ {
		out[i] = digest[i] ^ pad.Auth[i]
	}
	return out
}

// Digest returns the keyed GHASH digest of arbitrary-length data. The
// batching mechanism uses it to fold concatenated per-block MsgMACs into a
// single Batched_MsgMAC (Formula 5).
func (g *PadGenerator) Digest(data []byte) [16]byte {
	return g.ghash(data)
}

// ghash evaluates the GF(2^128) polynomial hash over data padded to 16-byte
// blocks, followed by a length block, as in GCM.
func (g *PadGenerator) ghash(data []byte) [16]byte {
	totalBits := uint64(len(data)) * 8
	var y fieldElement
	var buf [16]byte
	for len(data) > 0 {
		n := copy(buf[:], data)
		for i := n; i < 16; i++ {
			buf[i] = 0
		}
		data = data[n:]
		y = gfMul(gfAdd(y, gfElement(buf)), g.h)
	}
	var lenBlock [16]byte
	binary.BigEndian.PutUint64(lenBlock[8:], totalBits)
	y = gfMul(gfAdd(y, gfElement(lenBlock)), g.h)
	return y.bytes()
}

// fieldElement is a GF(2^128) element in big-endian bit order with the GCM
// reduction polynomial x^128 + x^7 + x^2 + x + 1.
type fieldElement struct {
	hi, lo uint64
}

func gfElement(b [16]byte) fieldElement {
	return fieldElement{
		hi: binary.BigEndian.Uint64(b[0:8]),
		lo: binary.BigEndian.Uint64(b[8:16]),
	}
}

func (e fieldElement) bytes() [16]byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], e.hi)
	binary.BigEndian.PutUint64(b[8:16], e.lo)
	return b
}

func gfAdd(a, b fieldElement) fieldElement {
	return fieldElement{hi: a.hi ^ b.hi, lo: a.lo ^ b.lo}
}

// gfMul multiplies in GF(2^128) using the GCM convention where the
// polynomial's constant term is the most significant bit.
func gfMul(x, y fieldElement) fieldElement {
	var z fieldElement
	v := y
	for i := 0; i < 128; i++ {
		var bit uint64
		if i < 64 {
			bit = (x.hi >> (63 - uint(i))) & 1
		} else {
			bit = (x.lo >> (127 - uint(i))) & 1
		}
		if bit == 1 {
			z = gfAdd(z, v)
		}
		carry := v.lo & 1
		v.lo = v.lo>>1 | v.hi<<63
		v.hi >>= 1
		if carry == 1 {
			v.hi ^= 0xe100000000000000
		}
	}
	return z
}
