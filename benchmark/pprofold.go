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

// This file folds a runtime/pprof CPU profile into host seconds per layer
// without `go tool pprof` or a protobuf dependency: a profile is a gzipped
// protobuf message, and the fold needs five of its fields.
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (leaf first), 2 value (count, then cpu ns)
//	Location: 1 id, 4 line (innermost inlined call first)
//	Line:     1 function_id
//	Function: 1 id, 2 name (index into string_table)

// hostLayers are the buckets of the fold: this repo's packages under
// internal/, the Go runtime (scheduler, channels, GC: the proc hand-off
// lands here), and everything else.
var hostLayers = []string{
	"runtime", "sim", "cpu", "cache", "pgtable", "phys", "mesh", "interchip", "scc", "gic",
	"kernel", "mailbox", "svm", "repldir", "faults", "apps", "other",
}

// layerOf maps a function's full name to its bucket in hostLayers.
func layerOf(fn string) string {
	// The package path ends at the first dot after the last slash.
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	rest, ok := strings.CutPrefix(pkg, "metalsvm/internal/")
	if !ok {
		return "other"
	}
	if rest == "svm/repldir" {
		return "repldir"
	}
	first, _, _ := strings.Cut(rest, "/")
	for _, l := range hostLayers {
		if l == first {
			return l
		}
	}
	return "other"
}

// foldProfile attributes every sample of a CPU profile to the bucket that
// classify (layerOf, outside tests) gives its leaf frame's function, and
// returns CPU seconds per bucket and in total.
func foldProfile(gz []byte, classify func(fn string) string) (byLayer map[string]float64, total float64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		leaf uint64
		ns   int64
	}
	var (
		samples  []sample
		leafFunc = map[uint64]uint64{} // location id -> innermost function id
		funcName = map[uint64]uint64{} // function id -> string table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var locs, vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				s.leaf = locs[0]
				s.ns = int64(vals[len(vals)-1])
				samples = append(samples, s)
			}
		case 4: // location
			var id, fn uint64
			seenLine := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			leafFunc[id] = fn
		case 5: // function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}

	byLayer = make(map[string]float64, len(hostLayers))
	for _, s := range samples {
		name := ""
		if i := funcName[leafFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		sec := float64(s.ns) / 1e9
		byLayer[classify(name)] += sec
		total += sec
	}
	return byLayer, total, nil
}

var errTruncated = errors.New("truncated protobuf message")

// eachField calls fn for every field of a protobuf message: v carries a
// varint field's value, b a length-delimited field's bytes. Fixed-width
// fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(msg) < width {
				return errTruncated
			}
			msg = msg[width:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := fn(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: the packed
// encoding puts them all in b, the unpacked one gives a single v.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
