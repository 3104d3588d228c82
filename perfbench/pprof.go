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

// cpuModules are the buckets of the cpu.* shares, in report order.
var cpuModules = []string{
	"cluster", "engine", "core", "lut", "cordic", "pimsim", "fusion",
	"telemetry", "profiler", "accwatch", "runtime", "bench",
}

// moduleOf maps a profiled function name to its cpu.* bucket, or ""
// for a frame the share passes through to its caller: the standard
// library outside the Go runtime, so that the JSON encoding a /debug
// handler does counts against the observer that asked for it.
func moduleOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main" || pkg == "transpimlib/perfbench" || pkg == "runtime/pprof":
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "transpimlib":
		// The public facade: each wrapper counts toward the layer it
		// fronts.
		switch {
		case strings.Contains(fn, "Cluster"):
			return "cluster"
		case strings.Contains(fn, "(*Lib)") || strings.HasPrefix(fn, "transpimlib.New"):
			return "core"
		}
		return "engine"
	case !strings.HasPrefix(pkg, "transpimlib/internal/"):
		return ""
	}
	switch m := strings.TrimPrefix(pkg, "transpimlib/internal/"); m {
	case "cluster", "engine", "core", "lut", "cordic", "pimsim", "fusion", "profiler", "accwatch":
		return m
	case "telemetry", "telemetry/promparse":
		return "telemetry"
	case "faultsim":
		return "engine" // the engine's fault-injection hooks
	case "rangered", "fixed", "fpbits", "poly", "isa":
		return "core" // device-code helpers the operators call
	}
	return "bench" // stats, workloads: the benchmark's input generators
}

// cpuShares decodes a runtime/pprof CPU profile and returns each
// module's share of the samples, attributing a sample to the module of
// its leaf frame (self time). Samples with no module frame at all —
// the runtime's own goroutines — count as runtime.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	count := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		mod := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if m := moduleOf(p.funcName(fn)); m != "" {
					mod = m
					break stack
				}
			}
		}
		if len(s.vals) > 0 {
			count[mod] += int64(s.vals[0])
			total += int64(s.vals[0])
		}
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			shares[m] = float64(count[m]) / float64(total)
		}
		delete(count, m)
	}
	if len(count) > 0 {
		return nil, 0, fmt.Errorf("profile samples in unknown modules: %v", count)
	}
	return shares, total, nil
}

// profile is the part of profile.proto the shares need.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id → function ids, leaf (innermost inline) first
	funcs    map[uint64]int64    // function id → name string index
	strs     []string
}

type profSample struct {
	locs []uint64 // leaf first
	vals []uint64 // [sample count, cpu ns]
}

func (p *profile) funcName(id uint64) string {
	if i, ok := p.funcs[id]; ok && i >= 0 && int(i) < len(p.strs) {
		return p.strs[i]
	}
	return ""
}

func decodeProfile(data []byte) (*profile, error) {
	if len(data) > 1 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					s.vals = appendVarints(s.vals, wire, v, b)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field, packed (wire type 2)
// or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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

// eachField calls f for every field of a protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func eachField(data []byte, f func(num, wire int, v uint64, b []byte) error) error {
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
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("pprof: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("pprof: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("pprof: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
		if err := f(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
