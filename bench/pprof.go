package main

// A minimal decoder for the gzip-compressed protobuf profiles that
// runtime/pprof writes (github.com/google/pprof/proto/profile.proto),
// reading only what CPU attribution needs: samples, locations,
// functions and the string table.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the decoded subset of a pprof profile.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → string-table index of its name
	strings   []string
}

type sample struct {
	locs   []uint64 // location ids, leaf first
	values []int64
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// parseProfile decodes a gzip-compressed (or raw) pprof profile.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return appendVarints(&s.locs, wire, v, b)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, wire, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fProfileString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields over as v and length-delimited ones as b.
func eachField(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			data = data[n:]
		case 1: // 64-bit
			if len(data) < 8 {
				return errors.New("pprof: truncated fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("pprof: truncated field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5: // 32-bit
			if len(data) < 4 {
				return errors.New("pprof: truncated fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, which the encoder
// writes either packed (one length-delimited run) or one per field.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// repoLayers are the repository packages reported as layers of their
// own; every other repository package counts as "other".
var repoLayers = map[string]bool{
	"vtime": true, "simnet": true, "mpi": true, "mpib": true, "topo": true,
	"collective": true, "estimate": true, "models": true, "campaign": true,
	"autotune": true, "serve": true,
}

// shareLayers are the buckets attribute fills; their shares sum to 1.
var shareLayers = []string{
	"vtime", "simnet", "mpi", "mpib", "topo", "collective", "estimate", "models",
	"campaign", "autotune", "serve", "runtime", "std", "bench", "other",
}

// funcPackage returns the import path of a profiled function's package
// ("repro/internal/mpi" for "repro/internal/mpi.(*Rank).gatherTree").
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 { // type arguments may hold paths
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// repoLayer maps a function to its repository layer, or "" for
// functions outside the repository. The benchmark's own package is
// "main" in its binary and "repro/bench" in its test binary.
func repoLayer(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main" || pkg == "repro/bench":
		return "bench"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if repoLayers[name] {
			return name
		}
		return "other"
	case pkg == "repro" || strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return ""
}

// isRuntime reports whether a package belongs to the Go runtime,
// counting the standard library's internal packages (atomics, maps,
// bytealg) the runtime is built from.
func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/")
}

// isGC reports whether a runtime function does garbage-collection work.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// attribute splits a CPU profile's samples into layer shares. A sample
// belongs to its innermost repository frame, so payload copying under
// mpi counts as mpi rather than runtime.memmove. A sample with no
// repository frame belongs to std when some frame lies outside the
// runtime, else to runtime. gcShare is the share of samples with a
// garbage-collection frame anywhere on the stack; it overlaps the
// layer shares. Samples are weighted by their last value (CPU
// nanoseconds in a CPU profile).
func attribute(p *profile) (shares map[string]float64, gcShare float64) {
	shares = map[string]float64{}
	for _, l := range shareLayers {
		shares[l] = 0
	}
	var total, gc float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		w := float64(s.values[len(s.values)-1])
		layer, std, gcFrame := "", false, false
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				fn := p.funcName(fid)
				if layer == "" {
					layer = repoLayer(fn)
				}
				std = std || !isRuntime(funcPackage(fn))
				gcFrame = gcFrame || isGC(fn)
			}
		}
		switch {
		case layer != "":
		case std:
			layer = "std"
		default:
			layer = "runtime"
		}
		shares[layer] += w
		total += w
		if gcFrame {
			gc += w
		}
	}
	if total == 0 {
		return shares, 0
	}
	for l := range shares {
		shares[l] /= total
	}
	return shares, gc / total
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.functions[id]; ok && i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}
