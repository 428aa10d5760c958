package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"flowvalve"
	"flowvalve/internal/classifier"
	"flowvalve/internal/clock"
	"flowvalve/internal/core"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
)

const (
	// facadeFrame is the MTU-size frame every decision schedules. The
	// offered rate is several times the 10 Gbps policy at any plausible
	// host speed, so most packets are dropped whatever the host does.
	facadeFrame = 1500
	// facadeFlowsPerApp flows per app and goroutine: each goroutine
	// owns a disjoint flow set well inside the 65536-entry flow cache.
	facadeFlowsPerApp = 16
	// facadeWindow is the throughput window in ns; decisions_per_s is
	// the median over the run's full windows.
	facadeWindow = 200e6
	// facadeSetups is how often a run builds the scheduler; setup_s is
	// the median.
	facadeSetups = 21
	// facadeTraceEvery is the span sampling rate of a traced pass.
	facadeTraceEvery = 64
	// motivationBps is the motivation policy's root rate.
	motivationBps = 10e9
)

// motivationLeaf maps each app of the motivation policy to its leaf
// class (apps 0=NC, 1=KVS, 2=ML, 3=WS).
var motivationLeaf = [4]string{"1:1", "1:40", "1:50", "1:30"}

type facadeFlow struct {
	app, flow uint32
}

// facadeWorker is one goroutine's closed loop and its private tallies.
type facadeWorker struct {
	flows                              []facadeFlow
	blocks                             []float64 // wall ns per decision, per block
	ends                               []int64   // block end times
	decisions, fwd, drop, unclassified uint64
	misclassified                      uint64
	offered                            [4]int64
	tr                                 *tracer
	heapPeak                           uint64
}

// facadePass is one timed or traced pass of facade-wallclock.
type facadePass struct {
	setup      []float64
	sched      *flowvalve.Scheduler
	workers    []*facadeWorker
	start, end int64
	// rate is the median over facadeWindow windows of the decisions
	// completed per wall second, summed over goroutines.
	rate       float64
	blocks     []float64
	heapPeak   float64
	decisions  uint64
	failed     uint64
	fwdBytes   int64
	modelErr   float64
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint64
	spans      []span
}

// facadeFlows returns goroutine g's flows, in a seed-dependent order.
func facadeFlows(seed uint64, g int) []facadeFlow {
	base := uint32(seed%4096) * 4096
	var out []facadeFlow
	for app := uint32(0); app < 4; app++ {
		for i := uint32(0); i < facadeFlowsPerApp; i++ {
			out = append(out, facadeFlow{app, base + uint32(g)*256 + app*facadeFlowsPerApp + i})
		}
	}
	rng := sim.NewRNG(seed*1000 + uint64(g))
	for i := len(out) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// runFacade drives flowvalve.Scheduler.Schedule from GOMAXPROCS
// goroutines for seconds of wall time and checks the scheduler's
// accounting against what was offered.
func runFacade(seed uint64, seconds float64, traced bool) (*facadePass, error) {
	pass := &facadePass{}
	first, err := pass.setUp(facadeFlows(seed, 0)[0].flow)
	if err != nil {
		return nil, err
	}
	if first.Verdict != flowvalve.Forward && first.Verdict != flowvalve.Drop {
		return nil, fmt.Errorf("first decision has verdict %v", first.Verdict)
	}

	n := runtime.GOMAXPROCS(0)
	pass.workers = make([]*facadeWorker, n)
	for g := range pass.workers {
		w := &facadeWorker{flows: facadeFlows(seed, g)}
		// The block logs live off the Go heap, so that they do not
		// count in the heap the run reports.
		logCap := int(seconds*blockRateCap) + 1024
		blocks, releaseBlocks, err := offHeap[float64](logCap)
		if err != nil {
			return nil, err
		}
		defer releaseBlocks()
		ends, releaseEnds, err := offHeap[int64](logCap)
		if err != nil {
			return nil, err
		}
		defer releaseEnds()
		w.blocks, w.ends = blocks, ends
		if traced {
			var err error
			if w.tr, err = newTracer(1 << 18); err != nil {
				return nil, err
			}
			defer w.tr.free()
		}
		pass.workers[g] = w
	}
	pass.workers[0].decisions = 1
	pass.workers[0].offered[0] = facadeFrame
	if first.Verdict == flowvalve.Forward {
		pass.workers[0].fwd = 1
	} else {
		pass.workers[0].drop = 1
	}

	alloc := readAllocs()
	startGate := make(chan struct{})
	var wg sync.WaitGroup
	deadline := nanotime() + int64(seconds*1e9)
	for g, w := range pass.workers {
		wg.Add(1)
		go func(g int, w *facadeWorker) {
			defer wg.Done()
			<-startGate
			w.run(pass.sched, deadline, g == 0)
		}(g, w)
	}
	pass.start = nanotime()
	close(startGate)
	wg.Wait()
	pass.end = nanotime()
	after := readAllocs()
	pass.allocBytes, pass.allocObjs, pass.gcCycles = after[0]-alloc[0], after[1]-alloc[1], after[2]-alloc[2]

	var offered [4]int64
	var fwd, drop uint64
	for _, w := range pass.workers {
		pass.blocks = append(pass.blocks, w.blocks...)
		pass.decisions += w.decisions
		pass.failed += w.unclassified + w.misclassified
		fwd += w.fwd
		drop += w.drop
		for a := range offered {
			offered[a] += w.offered[a]
		}
		pass.heapPeak = max(pass.heapPeak, float64(w.heapPeak)/(1<<20))
		if w.tr != nil {
			pass.spans = append(pass.spans, w.tr.spans...)
		}
	}
	rates := windowRates(pass.workers, pass.start, facadeWindow)
	if len(rates) == 0 {
		return nil, fmt.Errorf("run shorter than one %v window", time.Duration(facadeWindow))
	}
	pass.rate = median(rates)
	for _, w := range pass.workers {
		w.blocks, w.ends = nil, nil // released on return
	}

	// Output check: every offered byte was forwarded or dropped by the
	// class its app maps to.
	byClass := make(map[string]flowvalve.ClassStats)
	for _, st := range pass.sched.Stats() {
		byClass[st.Class] = st
	}
	var statFwd, statDrop int64
	for app, leaf := range motivationLeaf {
		st, ok := byClass[leaf]
		if !ok {
			return nil, fmt.Errorf("policy has no class %s", leaf)
		}
		if st.FwdBytes+st.DropBytes != offered[app] {
			return nil, fmt.Errorf("class %s accounts %d forwarded + %d dropped bytes, %d offered",
				leaf, st.FwdBytes, st.DropBytes, offered[app])
		}
		statFwd += st.FwdPkts
		statDrop += st.DropPkts
		pass.fwdBytes += st.FwdBytes
	}
	if uint64(statFwd) != fwd || uint64(statDrop) != drop {
		return nil, fmt.Errorf("stats count %d forwarded / %d dropped, verdicts %d / %d", statFwd, statDrop, fwd, drop)
	}
	wallS := float64(pass.end-pass.start) / 1e9
	pass.modelErr = math.Abs(float64(pass.fwdBytes)*8/wallS-motivationBps) / motivationBps
	return pass, nil
}

// setUp builds the scheduler facadeSetups times — parse and compile the
// policy, build the scheduler, make the first decision — timing each
// build in the thread's CPU time, and keeps the last one.
func (pass *facadePass) setUp(flow uint32) (flowvalve.Decision, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var first flowvalve.Decision
	for i := 0; i < facadeSetups; i++ {
		runtime.GC()
		t0 := threadCPU()
		s, err := flowvalve.NewScheduler(flowvalve.MotivationPolicy(), flowvalve.NewWallClock(), flowvalve.Options{})
		if err != nil {
			return first, err
		}
		first = s.Schedule(0, flow, facadeFrame)
		pass.setup = append(pass.setup, float64(threadCPU()-t0)/1e9)
		pass.sched = s
	}
	return first, nil
}

// facadeBlockSize is the decision block of the wall-clock loop.
const facadeBlockSize = 1024

// run is one goroutine's closed loop until the deadline. It is timed on
// the wall clock: the goroutines' decision rates are summed over the same
// windows, so one goroutine's slowdown, which relieves the other of
// contention, is not counted twice.
func (w *facadeWorker) run(s *flowvalve.Scheduler, deadline int64, sampleHeap bool) {
	heap := newHeapSample()
	var expected [4]string
	copy(expected[:], motivationLeaf[:])
	next := 0
	last := nanotime()
	for {
		for k := 0; k < facadeBlockSize; k++ {
			f := w.flows[next]
			next++
			if next == len(w.flows) {
				next = 0
			}
			var d flowvalve.Decision
			if w.tr != nil && k%facadeTraceEvery == 0 && w.tr.root(spanFacade) {
				d = s.Schedule(f.app, f.flow, facadeFrame)
				w.tr.end(1)
			} else {
				d = s.Schedule(f.app, f.flow, facadeFrame)
			}
			w.decisions++
			w.offered[f.app] += facadeFrame
			switch {
			case d.Verdict == flowvalve.Unclassified:
				w.unclassified++
			case d.Class != expected[f.app]:
				w.misclassified++
			case d.Verdict == flowvalve.Forward:
				w.fwd++
			default:
				w.drop++
			}
		}
		now := nanotime()
		w.blocks = append(w.blocks, float64(now-last)/facadeBlockSize)
		w.ends = append(w.ends, now)
		last = now
		if sampleHeap && len(w.blocks)%16 == 0 {
			w.heapPeak = max(w.heapPeak, heapInUse(heap))
		}
		if now >= deadline {
			return
		}
	}
}

// windowRates buckets the workers' block completions into fixed windows
// from start and returns the decision rate of every full window.
func windowRates(workers []*facadeWorker, start, window int64) []float64 {
	var last int64
	for _, w := range workers {
		for _, e := range w.ends {
			last = max(last, e)
		}
	}
	rates := make([]float64, (last-start)/window)
	for _, w := range workers {
		for _, e := range w.ends {
			if k := (e - start) / window; k < int64(len(rates)) {
				rates[k] += facadeBlockSize / (float64(window) / 1e9)
			}
		}
	}
	return rates
}

// replayRounds is how often a replay runs; it reports the median.
const replayRounds = 3

// facadeReplay times the facade's labeling and scheduling functions on
// their own, over one worker's flow stream: classifier.LookupEv on a
// same-config classifier, and core.Scheduler.Schedule on a same-config
// wall-clock scheduler. It returns CPU ns per lookup, CPU ns per
// decision and the replay scheduler's update count.
func facadeReplay(seed uint64, calls int) (lookupNs, scheduleNs float64, updates int64, err error) {
	flows := facadeFlows(seed, 0)
	stream := make([]flowKey, calls)
	for i := range stream {
		f := flows[i%len(flows)]
		stream[i] = flowKey{packet.AppID(f.app), packet.FlowID(f.flow), facadeFrame}
	}
	lookupNs, labels, err := replayLookups(fvconf.MotivationScript, stream)
	if err != nil {
		return 0, 0, 0, err
	}
	t, _, _, err := compile(fvconf.MotivationScript)
	if err != nil {
		return 0, 0, 0, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var rounds []float64
	for i := 0; i < replayRounds; i++ {
		s, err := core.New(t, clock.NewWall(), core.Config{})
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := threadCPU()
		for i, lbl := range labels {
			s.Schedule(lbl, stream[i].size)
		}
		rounds = append(rounds, float64(threadCPU()-t0)/float64(len(labels)))
		updates = 0
		for _, st := range s.Snapshot() {
			updates += st.Updates
		}
	}
	return lookupNs, median(rounds), updates, nil
}

// replayLookups times LookupEv, the NIC's classifier entry point, over
// the stream on fresh classifiers built for script with the default
// cache. It returns the median CPU ns per lookup and the labels.
func replayLookups(script string, stream []flowKey) (float64, []*tree.Label, error) {
	t, rules, def, err := compile(script)
	if err != nil {
		return 0, nil, err
	}
	alloc := &packet.Alloc{}
	pkts := make([]*packet.Packet, len(stream))
	for i, k := range stream {
		pkts[i] = alloc.New(k.flow, k.app, k.size, 0)
	}
	labels := make([]*tree.Label, len(stream))
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var rounds []float64
	for i := 0; i < replayRounds; i++ {
		cls, err := classifier.NewSized(t, rules, def, classifier.CacheConfig{})
		if err != nil {
			return 0, nil, err
		}
		t0 := threadCPU()
		for i, p := range pkts {
			labels[i], _, _ = cls.LookupEv(p)
		}
		rounds = append(rounds, float64(threadCPU()-t0)/float64(len(pkts)))
	}
	return median(rounds), labels, nil
}
