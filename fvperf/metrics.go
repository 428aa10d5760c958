package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a timed (untraced) run reports, in output
// order. Every workload reports every one of them; README.md gives the
// per-workload definition of each.
var endToEnd = []metricDef{
	{"sim_pkts_per_host_s", "1/s"},
	{"decisions_per_s", "1/s"},
	{"decision_ns_p50", "ns"},
	{"decision_ns_p99", "ns"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the metrics a traced run reports. A workload that does
// not exercise a layer reports 0 for that layer's metrics. model_err and
// fail_frac are workload outcomes rather than layer costs; they are
// reported here because they sit near 0 on some workloads, where a
// relative regression bound means nothing.
var perLayer = []metricDef{
	{"sim.events", "count"},
	{"sim.events_per_pkt", "ratio"},
	{"sim.queue_depth_mean", "count"},
	{"sim.queue_depth_max", "count"},
	{"sim.step_ns", "ns"},
	{"sim.cpu_share", "ratio"},
	{"gc.alloc_bytes_per_pkt", "B"},
	{"gc.allocs_per_pkt", "count"},
	{"gc.cycles", "count"},
	{"gc.cpu_share", "ratio"},
	{"trafficgen.pkts", "count"},
	{"trafficgen.cpu_share", "ratio"},
	{"tcp.segments", "count"},
	{"tcp.loss_frac", "ratio"},
	{"tcp.cpu_share", "ratio"},
	{"nic.inject_ns", "ns"},
	{"nic.core_util", "ratio"},
	{"nic.tm_bytes_max", "B"},
	{"nic.drop_sched", "count"},
	{"nic.drop_rx_ring", "count"},
	{"nic.drop_tm", "count"},
	{"nic.drop_buffer", "count"},
	{"nic.drop_slowpath", "count"},
	{"nic.cpu_share", "ratio"},
	{"pktq.cpu_share", "ratio"},
	{"classifier.hit_ratio", "ratio"},
	{"classifier.evictions", "count"},
	{"classifier.lookup_ns", "ns"},
	{"classifier.cpu_share", "ratio"},
	{"core.schedule_ns", "ns"},
	{"core.updates", "count"},
	{"core.fwd_frac", "ratio"},
	{"core.borrow_frac", "ratio"},
	{"core.cpu_share", "ratio"},
	{"offload.installs", "count"},
	{"offload.demotions", "count"},
	{"offload.queue_drops", "count"},
	{"offload.slow_frac", "ratio"},
	{"offload.shed_frac", "ratio"},
	{"offload.cpu_share", "ratio"},
	{"htb.cpu_share", "ratio"},
	{"flowvalve.cpu_share", "ratio"},
	{"runtime.cpu_share", "ratio"},
	{"bench.cpu_share", "ratio"},
	{"model_err", "ratio"},
	{"fail_frac", "ratio"},
	{"trace.overhead", "ratio"},
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs rejects a catalogue with a malformed or repeated name or
// a missing unit.
func validateDefs(defs []metricDef) error {
	seen := make(map[string]bool, len(defs))
	for _, d := range defs {
		if !metricNameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if !metricUnitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %q has a missing or malformed unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult checks that vals holds exactly the catalogue's metrics,
// each a finite number, and attaches their units.
func buildResult(defs []metricDef, vals map[string]float64, attempted, failed uint64) (*result, error) {
	if attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	out := &result{Correct: true, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %q is not finite (%v)", d.Name, v)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		for name := range vals {
			if _, ok := out.Metrics[name]; !ok {
				return nil, fmt.Errorf("metric %q is not in the catalogue", name)
			}
		}
	}
	return out, nil
}

func (r *result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	return string(b)
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
