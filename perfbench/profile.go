package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced run attributes CPU profile samples to modules. The profile is
// the gzipped protobuf runtime/pprof writes; the decoder below reads only
// the fields attribution needs (samples, locations, functions, strings),
// since the module may depend on the standard library alone.

// cpuModules are the shares the traced run reports, in print order. They
// sum to 1 over all samples.
var cpuModules = []string{
	"sim", "interconnect", "secure", "otp", "core", "mem", "machine",
	"crypto", "workload", "sweep", "campaign", "store", "net", "gc", "other",
}

// programPrefix is the import-path prefix of the simulator's packages.
const programPrefix = "secmgpu/internal/"

// gcRoots prefix the runtime functions under which every frame is
// allocation, collection or write-barrier work.
var gcRoots = []string{
	"runtime.mallocgc",
	"runtime.newobject",
	"runtime.makeslice",
	"runtime.growslice",
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.gcWriteBarrier",
	"runtime.wbBufFlush",
	"runtime.bulkBarrierPreWrite",
	"runtime.gcStart",
	"runtime.markroot",
}

// moduleOf attributes one sample, given its stack as function names from
// the leaf outwards. A sample is GC when any frame is an allocator or
// collector entry point. Otherwise it belongs to the leaf frame's
// package: a simulator package is its own module, net/http and
// encoding/json are "net", and any other standard-library frame (AES,
// hashing, maps, memmove) is charged to the nearest frame above it that
// names a module, so library work counts against the layer that asked for
// it. Frames that reach no module are "other".
func moduleOf(stack []string) string {
	for _, fn := range stack {
		for _, root := range gcRoots {
			if strings.HasPrefix(fn, root) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if m, ok := moduleOfFunc(fn); ok {
			return m
		}
	}
	return "other"
}

// moduleOfFunc maps one function name to a module, reporting false for
// standard-library frames that defer to their caller.
func moduleOfFunc(fn string) (string, bool) {
	if rest, ok := strings.CutPrefix(fn, programPrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, m := range cpuModules {
			if m == pkg {
				return m, true
			}
		}
		return "other", true
	}
	if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net/http/") ||
		strings.HasPrefix(fn, "encoding/json.") {
		return "net", true
	}
	if strings.HasPrefix(fn, "secmgpu/") || strings.HasPrefix(fn, "main.") {
		return "other", true
	}
	return "", false
}

// cpuShares decodes a gzipped CPU profile and returns each module's share
// of the samples, plus the sample count.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	stacks, weights, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	counts := make(map[string]int64)
	var total int64
	for i, st := range stacks {
		counts[moduleOf(st)] += weights[i]
		total += weights[i]
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = ratio(float64(counts[m]), float64(total))
	}
	return shares, int(total), nil
}

// decodeProfile returns each sample's stack (function names, leaf first,
// inlined frames expanded) and its first value (the sample count).
func decodeProfile(gz []byte) ([][]string, []int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []sample
		locFns  = make(map[uint64][]uint64) // location -> function IDs, innermost first
		fnName  = make(map[uint64]int64)    // function -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, wire, v, b)
				case 2:
					var u []uint64
					if err := appendUints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	stacks := make([][]string, len(samples))
	weights := make([]int64, len(samples))
	for i, s := range samples {
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				idx := fnName[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, nil, errors.New("profile: function name out of range")
				}
				stacks[i] = append(stacks[i], strs[idx])
			}
		}
		if len(s.vals) > 0 {
			weights[i] = s.vals[0]
		}
	}
	return stacks, weights, nil
}

// appendUints appends a repeated integer field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
