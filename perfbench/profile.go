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

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) and attributes each sample to a layer. Only the fields the
// attribution needs are decoded: samples, locations, functions and the
// string table.

// layers are the per-layer CPU buckets in report order. gc is not a profile
// bucket (it comes from runtime/metrics); other collects module code outside
// the named layers (mem, pcie, fault, platform, the ccnic facade, this
// benchmark), so the shares partition the CPU.
var layers = []string{"sim", "shard", "coherence", "interconn", "ring", "bufpool", "device",
	"fabric", "cluster", "app", "other", "runtime", "gc"}

// layerOfPkg maps an internal package (path below ccnic/internal/) to its
// layer. The apps share one layer.
var layerOfPkg = map[string]string{
	"sim": "sim", "sim/shard": "shard", "coherence": "coherence", "interconn": "interconn",
	"ring": "ring", "bufpool": "bufpool", "device": "device", "fabric": "fabric",
	"cluster": "cluster", "loopback": "app", "kvstore": "app", "traffic": "app", "stats": "app",
}

// gcFrames are the entry points of garbage-collector work. A sample under
// one of them is GC time; its share is taken from runtime/metrics instead.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.gcDrain": true, "runtime.gcDrainN": true, "runtime.gcMarkTermination": true,
	"runtime.gcStart": true, "runtime.markroot": true,
}

// layerOf attributes one sample's stack (innermost frame first): a GC
// sample to "gc"; otherwise the innermost ccnic/internal/<pkg> frame's
// layer; otherwise "other" if any module frame is on the stack, else
// "runtime".
func layerOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "gc"
		}
	}
	module := false
	for _, fn := range stack {
		pkg := pkgOf(fn)
		if rest, ok := strings.CutPrefix(pkg, "ccnic/internal/"); ok {
			if l, ok := layerOfPkg[rest]; ok {
				return l
			}
			return "other"
		}
		if pkg == "ccnic" || pkg == "main" || strings.HasPrefix(pkg, "ccnic/") {
			module = true
		}
	}
	if module {
		return "other"
	}
	return "runtime"
}

// pkgOf returns the import path of a symbol name such as
// "ccnic/internal/sim.(*Kernel).Spawn.func1".
func pkgOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuByLayer decodes a CPU profile and sums the CPU nanoseconds of its
// samples per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	valueIdx := p.sampleTypes - 1 // CPU profiles: [samples/count, cpu/nanoseconds]
	out := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fid := range p.locs[id] {
				stack = append(stack, p.str(p.funcs[fid]))
			}
		}
		if valueIdx < 0 || valueIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a CPU value")
		}
		out[layerOf(stack)] += s.values[valueIdx]
	}
	return out, nil
}

type profile struct {
	sampleTypes int
	samples     []pbSample
	locs        map[uint64][]uint64 // location id -> function ids, innermost first
	funcs       map[uint64]int64    // function id -> name string index
	strs        []string
}

type pbSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// decodeProfile decodes the profile.proto fields the attribution uses.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := fields(b, func(num, wt int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			p.sampleTypes++
		case 2: // sample
			var s pbSample
			err := fields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					return scalars(wt, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return scalars(wt, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fids []uint64
			err := fields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(data, func(num, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fids = append(fids, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fids
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num, wt int, v uint64, _ []byte) error {
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
		case 6: // string_table
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// fields walks the fields of one protobuf message, passing each field's
// number, wire type, and either its varint value or its bytes.
func fields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// scalars yields a repeated varint field, packed or not.
func scalars(wt int, v uint64, data []byte, yield func(uint64)) error {
	if wt == 0 {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		yield(x)
		data = data[n:]
	}
	return nil
}
