package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile is a gzipped protobuf (github.com/google/pprof's
// profile.proto). The module takes no dependencies, so the few messages
// the layer attribution needs are decoded here by hand.

// profSample is one stack (innermost frame first) with its weight.
type profSample struct {
	frames []string
	weight int64
}

// parseProfile decodes the samples of a gzipped pprof profile, expanding
// inlined frames, and weights each by its last value (CPU time).
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs      []string
		funcName  = map[uint64]int64{} // function id → string index
		locLines  = map[uint64][]uint64{}
		rawSample [][]byte
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out []profSample
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
			switch {
			case num == 1 && wt == 2:
				return eachPacked(b, func(x uint64) { locs = append(locs, x) })
			case num == 1:
				locs = append(locs, v)
			case num == 2 && wt == 2:
				return eachPacked(b, func(x uint64) { vals = append(vals, int64(x)) })
			case num == 2:
				vals = append(vals, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		s := profSample{weight: vals[len(vals)-1]}
		for _, l := range locs {
			for _, fn := range locLines[l] {
				idx := funcName[fn]
				if idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				s.frames = append(s.frames, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks the top-level fields of a protobuf message. Varint
// fields pass their value in v; length-delimited fields their bytes in b.
func eachField(msg []byte, fn func(num, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

func eachPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// layers lists the attribution targets, in report order.
var layers = []string{
	"sim", "trafficgen", "tcp", "nic", "pktq", "classifier", "core", "offload",
	"htb", "flowvalve", "gc", "runtime", "bench",
}

// modulePkgLayer maps the module's packages to layers. Helper packages a
// layer calls into belong to that layer: the parser and match-action
// tables to the classifier, token buckets, the class tree and the clock
// the scheduler reads to the scheduler core, the host CPU model to the slow path's NIC plumbing.
var modulePkgLayer = map[string]string{
	"flowvalve":                      "flowvalve",
	"flowvalve/internal/fvconf":      "flowvalve",
	"flowvalve/internal/sim":         "sim",
	"flowvalve/internal/fvassert":    "sim",
	"flowvalve/internal/trafficgen":  "trafficgen",
	"flowvalve/internal/packet":      "trafficgen",
	"flowvalve/internal/tcp":         "tcp",
	"flowvalve/internal/nic":         "nic",
	"flowvalve/internal/dataplane":   "nic",
	"flowvalve/internal/host":        "nic",
	"flowvalve/internal/faults":      "nic",
	"flowvalve/internal/pktq":        "pktq",
	"flowvalve/internal/classifier":  "classifier",
	"flowvalve/internal/p4lite":      "classifier",
	"flowvalve/internal/headers":     "classifier",
	"flowvalve/internal/core":        "core",
	"flowvalve/internal/token":       "core",
	"flowvalve/internal/clock":       "core",
	"flowvalve/internal/sched/tree":  "core",
	"flowvalve/internal/offload":     "offload",
	"flowvalve/internal/htb":         "htb",
	"flowvalve/internal/prio":        "htb",
	"flowvalve/internal/telemetry":   "bench",
	"flowvalve/internal/stats":       "bench",
	"flowvalve/internal/experiments": "bench",
	"main":                           "bench",
}

// gcFramePrefixes mark a sample as allocation or collection work: the
// allocator entry points, the collector's workers and assists, sweeping
// and scavenging, and write barriers.
var gcFramePrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.growWork", "runtime.hashGrow",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
	"runtime.gcMark", "runtime.gcSweep", "runtime.GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.markroot", "runtime.scanobject", "runtime.scanstack",
	"runtime.greyobject", "runtime.wbBufFlush", "runtime.gcWriteBarrier", "runtime.bulkBarrier",
	"runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*gcWork)",
	"runtime.(*sweepLocked)", "runtime.(*mspan)", "runtime.(*pageAlloc)", "runtime.(*scavengerState)",
}

// pkgOf returns the import path of a symbol name such as
// "flowvalve/internal/nic.(*NIC).Inject" or "main.run.func1".
func pkgOf(sym string) string {
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// layerOfPkg maps a module package (or its sub-package) to its layer,
// reporting false for code outside the module and the benchmark.
func layerOfPkg(pkg string) (string, bool) {
	for p := pkg; ; {
		if l, ok := modulePkgLayer[p]; ok {
			return l, true
		}
		i := strings.LastIndex(p, "/")
		if i < 0 || !strings.HasPrefix(p, "flowvalve/") {
			return "", false
		}
		p = p[:i]
	}
}

// attribute assigns one sample to a layer: allocation and collection
// work to gc; otherwise the innermost frame of the module or the
// benchmark owns the sample, so runtime and standard-library helpers
// (map access, memmove, container/heap) count against their caller;
// samples with no such frame go to runtime.
func attribute(frames []string) string {
	for _, f := range frames {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if l, ok := layerOfPkg(pkgOf(f)); ok {
			return l
		}
	}
	return "runtime"
}

// cpuShares turns samples into each layer's share of the profiled CPU
// time. Every layer in layers appears; the shares sum to 1.
func cpuShares(samples []profSample) (map[string]float64, error) {
	var total int64
	byLayer := make(map[string]int64, len(layers))
	for _, s := range samples {
		byLayer[attribute(s.frames)] += s.weight
		total += s.weight
	}
	if total <= 0 {
		return nil, errors.New("profile holds no CPU samples")
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = float64(byLayer[l]) / float64(total)
	}
	return out, nil
}
