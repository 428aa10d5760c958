// Command fvperf is the repository's end-to-end benchmark. It assembles
// each workload from the layers' exported constructors, measures it for
// a fixed host time, checks its outputs, and prints one JSON result as
// the last line of standard output:
//
//	fvperf --workload sat64 --seed 1 --seconds 45 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the workload untraced and then traced under a CPU profile, and
// reports the per-layer metrics. See README.md for the metrics, the
// workloads and why each was chosen.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
)

// profileHz is the CPU profile's sampling rate in a traced run.
const profileHz = 1000

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fvperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "sat64 | tcp-motivation | offload-churn | facade-wallclock")
	seed := fs.Uint64("seed", 0, "input seed (0 is the figure configuration)")
	seconds := fs.Float64("seconds", 10, "host seconds to measure")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join("fvperf", ".out"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "fvperf: want --seconds > 0, --trace 0|1 and no positional arguments")
		return 2
	}
	res, err := measure(*workload, *seed, *seconds, *trace == 1, *traceDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "fvperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, res.line())
	return 0
}

// measure runs one workload and returns its checked result.
func measure(name string, seed uint64, seconds float64, traced bool, traceDir string, out io.Writer) (*result, error) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			return nil, err
		}
	}
	var (
		res *result
		err error
	)
	if name == "facade-wallclock" {
		res, err = measureFacade(seed, seconds, traced, traceDir, out)
	} else {
		var w *desWorkload
		for _, c := range desWorkloads {
			if c.name == name {
				w = c
			}
		}
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		res, err = measureDES(w, seed, seconds, traced, traceDir, out)
	}
	if err != nil {
		return nil, err
	}
	printMetrics(out, res)
	return res, nil
}

func printMetrics(out io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-24s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func measureDES(w *desWorkload, seed uint64, seconds float64, traced bool, traceDir string, out io.Writer) (*result, error) {
	if err := crossCheck(w); err != nil {
		return nil, err
	}
	if !traced {
		p, err := runDES(w, seed, seconds, nil)
		if err != nil {
			return nil, err
		}
		pktRate, decRate := p.rates()
		fmt.Fprintf(out, "workload=%s seed=%d iterations=%d decision_blocks=%d block=%d packets\n",
			w.name, seed, p.iters, len(p.blocks), blockPkts)
		return buildResult(endToEnd, map[string]float64{
			"sim_pkts_per_host_s": pktRate,
			"decisions_per_s":     decRate,
			"decision_ns_p50":     quantile(p.blocks, 0.5),
			"decision_ns_p99":     quantile(p.blocks, 0.99),
			"peak_heap_mb":        median(p.heapPeak),
			"setup_s":             median(p.setup),
		}, p.attempted, 0)
	}

	plain, err := runDES(w, seed, seconds/2, nil)
	if err != nil {
		return nil, err
	}
	tr, err := newTracer(1 << 20)
	if err != nil {
		return nil, err
	}
	defer tr.free()
	var tp *desPass
	shares, err := profiled(func() error {
		var err error
		tp, err = runDES(w, seed, seconds/2, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	spans, err := summarize(tp.spans)
	if err != nil {
		return nil, err
	}
	lookupNs, _, err := replayLookups(w.policy, tp.stream)
	if err != nil {
		return nil, err
	}
	s := tp.sum
	pkts := float64(s.Injected)
	// Both passes alternate the same variants, whose iterations do the
	// same work, so their median iteration rates compare like for like.
	plainRate, _ := plain.rates()
	tracedRate, _ := tp.rates()
	cfg := nicConfig.Defaults()
	o := s.Offload
	vals := map[string]float64{
		"sim.events":             float64(s.Events),
		"sim.events_per_pkt":     ratio(float64(s.Events), pkts),
		"sim.queue_depth_mean":   ratio(tp.pendSum, tp.pendN),
		"sim.queue_depth_max":    float64(tp.pendMax),
		"sim.step_ns":            spans[spanStep].MeanNs,
		"gc.alloc_bytes_per_pkt": ratio(float64(plain.allocBytes), float64(plain.sum.Injected)),
		"gc.allocs_per_pkt":      ratio(float64(plain.allocObjs), float64(plain.sum.Injected)),
		"gc.cycles":              float64(plain.gcCycles),
		"trafficgen.pkts":        float64(s.GenPkts),
		"tcp.segments":           float64(s.TCPSent),
		"tcp.loss_frac":          ratio(float64(s.TCPLost), float64(s.TCPSent)),
		"nic.inject_ns":          spans[spanEnqueue].MeanNs,
		"nic.core_util":          s.BusyCycles / (float64(cfg.Cores) * cfg.CoreFreqHz * float64(s.SimNs) / 1e9),
		"nic.tm_bytes_max":       float64(tp.tmMax),
		"nic.drop_sched":         float64(s.NIC.SchedDrops),
		"nic.drop_rx_ring":       float64(s.NIC.RxRingDrops),
		"nic.drop_tm":            float64(s.NIC.TMDrops),
		"nic.drop_buffer":        float64(s.NIC.BufferDrops),
		"nic.drop_slowpath":      float64(s.NIC.SlowPathDrops),
		"classifier.hit_ratio":   ratio(float64(s.CacheHits), float64(s.CacheHits+s.CacheMisses)),
		"classifier.evictions":   float64(s.Evictions),
		"classifier.lookup_ns":   lookupNs,
		"core.schedule_ns":       spans[spanSchedule].PerOpNs,
		"core.updates":           float64(s.Updates),
		"core.fwd_frac":          ratio(float64(s.Fwd), float64(s.Fwd+s.SchedDrop)),
		"core.borrow_frac":       ratio(float64(s.Borrow), float64(s.Fwd)),
		"offload.installs":       float64(o.Installs),
		"offload.demotions":      float64(o.Demotions),
		"offload.queue_drops":    float64(o.QueueDrops),
		"offload.slow_frac":      ratio(float64(o.SlowPkts), float64(o.FastPkts+o.SlowPkts)),
		"offload.shed_frac":      ratio(float64(o.SlowPathDrops), float64(o.SlowPkts)),
		"model_err":              s.ModelErr / desVariants,
		"fail_frac":              ratio(float64(s.NIC.overflow()), pkts),
		"trace.overhead":         1 - tracedRate/plainRate,
	}
	for l, v := range shares {
		vals[l+".cpu_share"] = v
	}
	fmt.Fprintf(out, "workload=%s seed=%d untraced_iterations=%d traced_iterations=%d spans=%d\n",
		w.name, seed, plain.iters, tp.iters, len(tp.spans))
	if err := writeTrace(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", w.name, seed)), spans, tp.spans, 20000); err != nil {
		return nil, err
	}
	return buildResult(perLayer, vals, plain.attempted+tp.attempted, 0)
}

func measureFacade(seed uint64, seconds float64, traced bool, traceDir string, out io.Writer) (*result, error) {
	if !traced {
		p, err := runFacade(seed, seconds, false)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "workload=facade-wallclock seed=%d goroutines=%d decision_blocks=%d block=%d decisions\n",
			seed, len(p.workers), len(p.blocks), facadeBlockSize)
		return buildResult(endToEnd, map[string]float64{
			"sim_pkts_per_host_s": p.rate,
			"decisions_per_s":     p.rate,
			"decision_ns_p50":     quantile(p.blocks, 0.5),
			"decision_ns_p99":     quantile(p.blocks, 0.99),
			"peak_heap_mb":        p.heapPeak,
			"setup_s":             median(p.setup),
		}, p.decisions, p.failed)
	}

	plain, err := runFacade(seed, seconds/2, false)
	if err != nil {
		return nil, err
	}
	var tp *facadePass
	shares, err := profiled(func() error {
		var err error
		tp, err = runFacade(seed, seconds/2, true)
		return err
	})
	if err != nil {
		return nil, err
	}
	spans, err := summarize(tp.spans)
	if err != nil {
		return nil, err
	}
	lookupNs, scheduleNs, updates, err := facadeReplay(seed, 1<<20)
	if err != nil {
		return nil, err
	}
	cache := tp.sched.FlowCacheStats()
	var fwd, borrow float64
	for _, st := range tp.sched.Stats() {
		fwd += float64(st.FwdPkts)
		borrow += float64(st.BorrowPkts)
	}
	vals := map[string]float64{
		"gc.alloc_bytes_per_pkt": ratio(float64(plain.allocBytes), float64(plain.decisions)),
		"gc.allocs_per_pkt":      ratio(float64(plain.allocObjs), float64(plain.decisions)),
		"gc.cycles":              float64(plain.gcCycles),
		"classifier.hit_ratio":   ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)),
		"classifier.evictions":   float64(cache.Evictions),
		"classifier.lookup_ns":   lookupNs,
		"core.schedule_ns":       scheduleNs,
		"core.updates":           float64(updates),
		"core.fwd_frac":          ratio(fwd, float64(tp.decisions)),
		"core.borrow_frac":       ratio(borrow, fwd),
		"model_err":              tp.modelErr,
		"fail_frac":              ratio(float64(tp.failed), float64(tp.decisions)),
		"trace.overhead":         1 - tp.rate/plain.rate,
	}
	for l, v := range shares {
		vals[l+".cpu_share"] = v
	}
	for _, d := range perLayer {
		if _, ok := vals[d.Name]; !ok {
			vals[d.Name] = 0 // a layer facade-wallclock does not run
		}
	}
	fmt.Fprintf(out, "workload=facade-wallclock seed=%d goroutines=%d spans=%d\n", seed, len(tp.workers), len(tp.spans))
	if err := writeTrace(filepath.Join(traceDir, fmt.Sprintf("facade-wallclock-seed%d.json", seed)), spans, tp.spans, 20000); err != nil {
		return nil, err
	}
	return buildResult(perLayer, vals, plain.decisions+tp.decisions, plain.failed+tp.failed)
}

// profiled runs fn under a CPU profile and returns each layer's share of
// the sampled CPU time.
func profiled(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	// StartCPUProfile keeps a rate set beforehand (and says so on
	// standard error); its default 100 Hz is too coarse for small layers.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		runtime.SetCPUProfileRate(0)
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	return cpuShares(samples)
}
