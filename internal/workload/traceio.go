package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace serialization: a compact binary container so generated traces can
// be exported, inspected (cmd/sectrace), or replaced with externally
// captured streams. Format (little-endian):
//
//	magic   [8]byte  "SECMGPU1"
//	count   uint32   number of ops
//	ops     count x { gap uint32 | kind uint8 | home uint8 | page uint32 | block uint8 }
//
// The per-op record is 11 bytes; a full-size high-RPKI trace (40K ops) is
// ~430 KB.

var traceMagic = [8]byte{'S', 'E', 'C', 'M', 'G', 'P', 'U', '1'}

const opRecordBytes = 4 + 1 + 1 + 4 + 1

// WriteTrace serializes ops to w.
func WriteTrace(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(ops))); err != nil {
		return err
	}
	var rec [opRecordBytes]byte
	for i, op := range ops {
		if op.Kind != Read && op.Kind != Write {
			return fmt.Errorf("workload: op %d has invalid kind %d", i, op.Kind)
		}
		binary.LittleEndian.PutUint32(rec[0:4], op.Gap)
		rec[4] = byte(op.Kind)
		rec[5] = op.Home
		binary.LittleEndian.PutUint32(rec[6:10], op.Page)
		rec[10] = op.Block
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTrace.
func ReadTrace(r io.Reader) ([]Op, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("workload: bad trace magic %q", magic[:])
	}
	var count uint32
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("workload: reading trace count: %w", err)
	}
	const maxOps = 64 << 20 // refuse absurd headers rather than OOM
	if count > maxOps {
		return nil, fmt.Errorf("workload: trace claims %d ops (limit %d)", count, maxOps)
	}
	ops := make([]Op, 0, count)
	var rec [opRecordBytes]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("workload: reading op %d: %w", i, err)
		}
		kind := OpKind(rec[4])
		if kind != Read && kind != Write {
			return nil, fmt.Errorf("workload: op %d has invalid kind %d", i, rec[4])
		}
		if rec[10] > 63 {
			return nil, fmt.Errorf("workload: op %d has invalid block %d", i, rec[10])
		}
		ops = append(ops, Op{
			Gap:   binary.LittleEndian.Uint32(rec[0:4]),
			Kind:  kind,
			Home:  rec[5],
			Page:  binary.LittleEndian.Uint32(rec[6:10]),
			Block: rec[10],
		})
	}
	return ops, nil
}

// TraceStats summarizes a trace for analysis tooling.
type TraceStats struct {
	Ops        int
	Reads      int
	Writes     int
	TotalGap   uint64
	Bursts     int
	MeanBurst  float64
	DestShares map[int]float64
	UniquePage int
}

// AnalyzeTrace computes summary statistics over a trace.
func AnalyzeTrace(ops []Op) TraceStats {
	st := TraceStats{Ops: len(ops), DestShares: make(map[int]float64)}
	pages := make(map[uint64]struct{})
	counts := make(map[int]int)
	burstLen := 0
	for i, op := range ops {
		if op.Kind == Read {
			st.Reads++
		} else {
			st.Writes++
		}
		st.TotalGap += uint64(op.Gap)
		counts[int(op.Home)]++
		pages[uint64(op.Home)<<32|uint64(op.Page)] = struct{}{}
		// A burst boundary is a gap larger than a generation time.
		if i == 0 || op.Gap > 40 {
			if burstLen > 0 {
				st.Bursts++
			}
			burstLen = 1
		} else {
			burstLen++
		}
	}
	if burstLen > 0 {
		st.Bursts++
	}
	if st.Bursts > 0 {
		st.MeanBurst = float64(st.Ops) / float64(st.Bursts)
	}
	for home, c := range counts {
		st.DestShares[home] = float64(c) / float64(st.Ops)
	}
	st.UniquePage = len(pages)
	return st
}
