package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"time"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/experiments"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/host"
	"flowvalve/internal/nic"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
	"flowvalve/internal/stats"
	"flowvalve/internal/tcp"
	"flowvalve/internal/trafficgen"
)

const (
	// blockPkts is the decision block: per-decision host time is taken
	// from the CPU time of each run of blockPkts consecutive packets.
	blockPkts = 1024
	// stepSample is the fraction (1/stepSample) of engine steps whose
	// span trees a traced pass records.
	stepSample = 16
	// streamCap bounds the recorded classifier input stream.
	streamCap = 1 << 20
	// blockRateCap bounds the decision blocks a run closes per second
	// (10^5 blocks of 1024 packets is about 100 M decisions/s, far above
	// either workload); the off-heap block logs are sized from it.
	blockRateCap = 1e5
	// desVariants is the number of input variants a DES run cycles
	// through: iteration i of a run at seed S simulates variant
	// S*desVariants + i%desVariants. Every repeat of a variant must
	// reproduce its first run exactly. The variants of every workload
	// do the same work per packet (events, allocations) to within 0.3%.
	desVariants = 2
)

// desWorkload is one discrete-event workload, assembled from the
// layers' exported constructors.
type desWorkload struct {
	name string
	// length is the simulated source-activity time of one timed
	// iteration; checkLength a shorter one for the figure cross-check.
	length, checkLength int64
	// policy is the workload's fv script: build assembles the run from
	// it, and the classifier replay builds a same-config classifier.
	policy string
	build  func(r *desRun, policy string, variant uint64, length int64) error
	// matchFigure runs the harness the workload mirrors at checkLength
	// and compares it with r, the workload's figure configuration run
	// at the same length.
	matchFigure func(r *desRun, length int64) error
}

var desWorkloads = []*desWorkload{
	{
		name: "sat64", length: 4e6, checkLength: 5e5,
		policy: fvconf.FairQueueScript("40gbit", 4),
		build:  buildSat64,
		matchFigure: func(r *desRun, length int64) error {
			row, err := experiments.Fig13Point(64, length)
			if err == nil && r.figValue != row.FlowValveMpps {
				err = fmt.Errorf("delivers %v Mpps, Fig13Point(64) %v", r.figValue, row.FlowValveMpps)
			}
			return err
		},
	},
	{
		name: "tcp-motivation", length: 45e9 * 4 / 100, checkLength: 45e9 / 200,
		policy: fvconf.MotivationScript,
		build:  buildTCPMotivation,
		matchFigure: func(r *desRun, length int64) error {
			res, err := experiments.Fig11a(float64(length) / 45e9)
			if err == nil && r.qdiscStop != res.Qdisc {
				err = fmt.Errorf("counts %+v, Fig11a %+v", r.qdiscStop, res.Qdisc)
			}
			return err
		},
	},
	{
		name: "offload-churn", length: 16e6, checkLength: 2e6,
		policy: fvconf.FairQueueScript("40gbit", 4),
		build:  buildOffloadChurn,
		matchFigure: func(r *desRun, length int64) error {
			res, err := experiments.RunOffload(experiments.OffloadScenario{DurationNs: length})
			if err != nil {
				return err
			}
			for _, row := range res.Rows {
				if row.Name != "adaptive-fed" {
					continue
				}
				if r.delivered != row.Delivered || r.dropped != row.Dropped || r.digest != row.TraceDigest {
					return fmt.Errorf("delivered %d dropped %d digest %x, lab row %d %d %x",
						r.delivered, r.dropped, r.digest, row.Delivered, row.Dropped, row.TraceDigest)
				}
				return nil
			}
			return fmt.Errorf("offload lab has no adaptive-fed row")
		},
	},
}

// desRun is one assembled simulation. The benchmark owns its engine
// loop, the sources' send function and the NIC callbacks, and counts
// packets at those boundaries.
type desRun struct {
	eng   *sim.Engine
	dev   *nic.NIC
	cls   *classifier.Classifier
	sched *core.Scheduler
	tcps  *tcp.Set
	flows []*tcp.Flow
	sats  []*trafficgen.Saturator
	churn []*trafficgen.Churn

	// Sources stop at stopNs; the run drains until endNs.
	endNs int64
	done  bool
	// atStop and atEnd snapshot the workload's figure outputs at
	// stopNs and endNs; onDeliver is the workload's own delivery
	// instrument.
	atStop    func()
	atEnd     func()
	onDeliver func(*packet.Packet)
	figValue  float64
	modelErr  float64
	qdiscStop dataplane.Stats

	injected, delivered, dropped uint64
	appBytes                     [4]uint64
	digest                       uint64

	// Measurement state.
	tr         *tracer
	lastBlock  int64
	blocks     []float64 // CPU ns per decision, one per block
	heapPeak   uint64
	heapSample []metrics.Sample
	stream     []flowKey // the recorded classifier inputs, off the heap
	pendSum    float64
	pendN      float64
	pendMax    int
	tmMax      int64
}

// flowKey is one classifier input as the NIC sees it.
type flowKey struct {
	app  packet.AppID
	flow packet.FlowID
	size int
}

var epoch = time.Now()

// nanotime is monotonic host time in ns.
func nanotime() int64 { return int64(time.Since(epoch)) }

// begin creates the engine and the benchmark's two marker events. They
// are scheduled before any source, so each is the first event at its
// instant: every model event at or before stopNs (endNs) has fired when
// its marker fires, as with sim.Engine.RunUntil.
func (r *desRun) begin(stopNs, endNs int64) {
	r.eng = sim.New()
	r.endNs = endNs
	r.digest = fnvOffset
	r.eng.At(stopNs+1, func() {
		if r.atStop != nil {
			r.atStop()
		}
	})
	r.eng.At(endNs+1, func() {
		if r.atEnd != nil {
			r.atEnd()
		}
		r.done = true
	})
}

// callbacks returns the NIC callbacks: boundary counters, the delivery
// digest (FNV-1a over flow, app, seq, egress time and packet ID, the
// offload lab's layout), the workload's instrument and the TCP model.
func (r *desRun) callbacks() nic.Callbacks {
	return nic.Callbacks{
		OnDeliver: func(p *packet.Packet) {
			r.tr.begin(spanDeliver)
			r.delivered++
			r.appBytes[int(p.App)%len(r.appBytes)] += uint64(p.WireBytes())
			r.digest = fnvWords(r.digest, uint64(p.Flow), uint64(p.App), p.Seq, uint64(p.EgressAt), p.ID)
			if r.onDeliver != nil {
				r.onDeliver(p)
			}
			if r.tcps != nil {
				r.tcps.OnDeliver(p)
			}
			r.tr.end(1)
		},
		OnDrop: func(p *packet.Packet, _ nic.DropReason) {
			r.tr.begin(spanDrop)
			r.dropped++
			if r.tcps != nil {
				r.tcps.OnDrop(p)
			}
			r.tr.end(1)
		},
	}
}

// send is every source's send function: it counts the packet, closes a
// decision block every blockPkts packets and injects into the NIC.
func (r *desRun) send(p *packet.Packet) {
	r.injected++
	if r.injected%blockPkts == 0 {
		now := processCPU()
		r.blocks = append(r.blocks, float64(now-r.lastBlock)/blockPkts)
		r.lastBlock = now
		if len(r.blocks)%16 == 0 {
			r.sampleHeap()
		}
	}
	if len(r.stream) < cap(r.stream) {
		r.stream = append(r.stream, flowKey{p.App, p.Flow, p.Size})
	}
	r.tr.begin(spanEnqueue)
	r.dev.Enqueue(p)
	r.tr.end(1)
}

// scheduler returns the scheduling function to hand the NIC: the core
// scheduler itself, or a span-recording wrapper in a traced pass.
func (r *desRun) scheduler(s *core.Scheduler) dataplane.Scheduler {
	r.sched = s
	if r.tr == nil {
		return s
	}
	return &tracedScheduler{s: s, tr: r.tr}
}

type tracedScheduler struct {
	s  *core.Scheduler
	tr *tracer
}

func (t *tracedScheduler) Schedule(lbl *tree.Label, size int) dataplane.Decision {
	t.tr.begin(spanSchedule)
	d := t.s.Schedule(lbl, size)
	t.tr.end(1)
	return d
}

func (t *tracedScheduler) ScheduleBatch(reqs []dataplane.Request, out []dataplane.Decision) {
	t.tr.begin(spanSchedule)
	t.s.ScheduleBatch(reqs, out)
	t.tr.end(len(reqs))
}

// loop drives the engine until the end marker fires.
func (r *desRun) loop() {
	if r.tr == nil {
		for !r.done && r.eng.Step() {
		}
		return
	}
	for i := 0; !r.done; i++ {
		pend := r.eng.Pending()
		r.pendSum += float64(pend)
		r.pendN++
		if pend > r.pendMax {
			r.pendMax = pend
		}
		if b := r.dev.QueuedBytes(); b > r.tmMax {
			r.tmMax = b
		}
		var ok bool
		if i%stepSample == 0 && r.tr.root(spanStep) {
			ok = r.eng.Step()
			r.tr.end(1)
		} else {
			ok = r.eng.Step()
		}
		if !ok {
			return
		}
	}
}

var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"}

// heapInUse reads the runtime's heap-in-use bytes without stopping the
// world.
func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var n uint64
	for _, x := range s {
		n += x.Value.Uint64()
	}
	return n
}

func newHeapSample() []metrics.Sample {
	s := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		s[i].Name = name
	}
	return s
}

func (r *desRun) sampleHeap() {
	if h := heapInUse(r.heapSample); h > r.heapPeak {
		r.heapPeak = h
	}
}

// verify checks packet conservation at the benchmark's boundaries after
// the drain, and that the NIC's own counters agree with them.
func (r *desRun) verify() error {
	if r.injected != r.delivered+r.dropped {
		return fmt.Errorf("conservation: injected %d != delivered %d + dropped %d (%d in flight after the drain)",
			r.injected, r.delivered, r.dropped, int64(r.injected)-int64(r.delivered+r.dropped))
	}
	q := r.dev.QdiscStats()
	if q.Enqueued != r.injected || q.Delivered != r.delivered || q.Dropped != r.dropped {
		return fmt.Errorf("NIC counters %+v disagree with the boundary counts (injected %d, delivered %d, dropped %d)",
			q, r.injected, r.delivered, r.dropped)
	}
	if b, sb := r.dev.Backlog(), r.dev.OffloadStats().SlowBacklogPkts; b != 0 || sb != 0 {
		return fmt.Errorf("NIC backlog %d, slow-path backlog %d after the drain", b, sb)
	}
	return nil
}

// desCounts are one run's simulated outputs. They depend only on the
// input variant, so runs of one variant must match exactly.
type desCounts struct {
	Events, Injected, Delivered, Dropped uint64
	NIC                                  nicDrops
	Digest                               uint64
	GenPkts, TCPSent, TCPLost            uint64
	CacheHits, CacheMisses, Evictions    uint64
	Fwd, SchedDrop, Borrow, Updates      int64
	Offload                              dataplane.OffloadStats
	BusyCycles                           float64
	SimNs                                int64
	FigValue, ModelErr                   float64
	QdiscStop                            dataplane.Stats
}

func (r *desRun) counts() desCounts {
	c := desCounts{
		Events:    r.eng.Fired() - 2, // less the two marker events
		Injected:  r.injected,
		Delivered: r.delivered,
		Dropped:   r.dropped,
		Digest:    r.digest,
		SimNs:     r.endNs,
		FigValue:  r.figValue,
		ModelErr:  r.modelErr,
		QdiscStop: r.qdiscStop,
	}
	for _, s := range r.sats {
		c.GenPkts += s.Sent
	}
	for _, g := range r.churn {
		c.GenPkts += g.Sent
	}
	for _, f := range r.flows {
		sent, _, lost := f.Counters()
		c.TCPSent += sent
		c.TCPLost += lost
	}
	cs := r.cls.Stats()
	c.CacheHits, c.CacheMisses, c.Evictions = cs.Hits, cs.Misses, cs.Evictions
	for _, st := range r.sched.Snapshot() {
		c.Fwd += st.FwdPkts
		c.SchedDrop += st.DropPkts
		c.Borrow += st.BorrowPkts
		c.Updates += st.Updates
	}
	c.Offload = r.dev.OffloadStats()
	st := r.dev.Stats()
	c.BusyCycles = st.BusyCycles
	c.NIC = nicDrops{st.SchedDrops, st.RxRingDrops, st.TMDrops, st.BufferDrops, st.SlowPathDrops, st.ShardRingDrops}
	return c
}

// nicDrops are the NIC's drop counters by reason.
type nicDrops struct {
	SchedDrops, RxRingDrops, TMDrops, BufferDrops, SlowPathDrops, ShardRingDrops uint64
}

// overflow counts the packets lost outside the policy's control: full
// rings, traffic-manager queues and buffer pools, and slow-path sheds.
func (d nicDrops) overflow() uint64 {
	return d.RxRingDrops + d.TMDrops + d.BufferDrops + d.SlowPathDrops + d.ShardRingDrops
}

func (d *nicDrops) add(o nicDrops) {
	d.SchedDrops += o.SchedDrops
	d.RxRingDrops += o.RxRingDrops
	d.TMDrops += o.TMDrops
	d.BufferDrops += o.BufferDrops
	d.SlowPathDrops += o.SlowPathDrops
	d.ShardRingDrops += o.ShardRingDrops
}

// nicConfig is the NIC configuration every DES workload runs: the 40G
// card with four egress ports, everything else at its defaults.
var nicConfig = nic.Config{WireRateBps: 40e9, WirePorts: 4}

func (c *desCounts) add(o desCounts) {
	c.Events += o.Events
	c.Injected += o.Injected
	c.Delivered += o.Delivered
	c.Dropped += o.Dropped
	c.NIC.add(o.NIC)
	c.GenPkts += o.GenPkts
	c.TCPSent += o.TCPSent
	c.TCPLost += o.TCPLost
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.Evictions += o.Evictions
	c.Fwd += o.Fwd
	c.SchedDrop += o.SchedDrop
	c.Borrow += o.Borrow
	c.Updates += o.Updates
	c.Offload.Installs += o.Offload.Installs
	c.Offload.Demotions += o.Offload.Demotions
	c.Offload.QueueDrops += o.Offload.QueueDrops
	c.Offload.FastPkts += o.Offload.FastPkts
	c.Offload.SlowPkts += o.Offload.SlowPkts
	c.Offload.SlowPathDrops += o.Offload.SlowPathDrops
	c.BusyCycles += o.BusyCycles
	c.SimNs += o.SimNs
	c.ModelErr += o.ModelErr
}

// desPass is one timed or traced pass over a DES workload.
type desPass struct {
	iters    int
	setup    []float64 // s per iteration
	blocks   []float64 // CPU ns per decision, per block
	heapPeak []float64 // MB per iteration
	// pktRate and decRate hold each iteration's packets injected and
	// scheduler decisions per CPU second of its event loop.
	pktRate, decRate []float64
	attempted        uint64 // packets injected over every iteration
	// first holds the variants' outputs; sum adds them up.
	first []desCounts
	sum   desCounts
	// Allocation and collection over the first run of each variant.
	allocBytes, allocObjs, gcCycles uint64
	spans                           []span
	stream                          []flowKey
	pendSum, pendN                  float64
	pendMax                         int
	tmMax                           int64
}

// rates returns packets injected and scheduler decisions per CPU second
// of the event loop: the median over iterations, so that iterations the
// host slowed down do not count. An iteration spans tens of collector
// cycles, so each one pays its share of collection.
func (p *desPass) rates() (pkts, decisions float64) {
	return median(p.pktRate), median(p.decRate)
}

var allocMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

// readAllocs returns the cumulative allocated bytes, allocated objects
// and completed GC cycles.
func readAllocs() [3]uint64 {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, name := range allocMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return [3]uint64{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// runDES runs iterations of w for seconds of wall time (and through
// every variant plus one repeat), checking each one. It is timed in the
// process's CPU time with a single processor: that counts the simulation
// and all of the collector's work on it, without idle mark workers
// burning a spare processor, and not the time the host runs others.
func runDES(w *desWorkload, seed uint64, seconds float64, tr *tracer) (*desPass, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pass := &desPass{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	heap := newHeapSample()
	// Block times are logged off the Go heap, so that the benchmark's
	// own bookkeeping does not count in the heap it reports.
	blocks, release, err := offHeap[float64](int(seconds*blockRateCap) + 1024)
	if err != nil {
		return nil, err
	}
	defer release()
	pass.blocks = blocks
	// One untimed run first, so that heap growth and cold caches are
	// not charged to whichever variant comes first.
	warm := &desRun{heapSample: heap}
	if err := w.build(warm, w.policy, seed*desVariants, w.length); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	warm.loop()
	var recorded []flowKey
	for i := 0; i <= desVariants || time.Now().Before(deadline); i++ {
		variant := seed*desVariants + uint64(i%desVariants)
		runtime.GC()
		r := &desRun{tr: tr, heapSample: heap, blocks: pass.blocks}
		if tr != nil && i == 0 {
			var release func()
			var err error
			if r.stream, release, err = offHeap[flowKey](streamCap); err != nil {
				return nil, err
			}
			defer release()
		}
		t0 := processCPU()
		if err := w.build(r, w.policy, variant, w.length); err != nil {
			return nil, fmt.Errorf("%s variant %d: %w", w.name, variant, err)
		}
		setupNs := processCPU() - t0
		a0 := readAllocs()
		r.lastBlock = processCPU()
		start := r.lastBlock
		r.loop()
		loopS := float64(processCPU()-start) / 1e9
		a1 := readAllocs()
		r.sampleHeap()
		if err := r.verify(); err != nil {
			return nil, fmt.Errorf("%s variant %d: %w", w.name, variant, err)
		}
		c := r.counts()
		if i < desVariants {
			pass.first = append(pass.first, c)
			pass.sum.add(c)
			pass.allocBytes += a1[0] - a0[0]
			pass.allocObjs += a1[1] - a0[1]
			pass.gcCycles += a1[2] - a0[2]
		} else if c != pass.first[i%desVariants] {
			return nil, fmt.Errorf("%s variant %d is not deterministic: %+v then %+v",
				w.name, variant, pass.first[i%desVariants], c)
		}
		pass.iters++
		pass.setup = append(pass.setup, float64(setupNs)/1e9)
		pass.attempted += r.injected
		pass.pktRate = append(pass.pktRate, float64(r.injected)/loopS)
		pass.decRate = append(pass.decRate, float64(c.Fwd+c.SchedDrop)/loopS)
		pass.blocks = r.blocks
		pass.heapPeak = append(pass.heapPeak, float64(r.heapPeak)/(1<<20))
		if tr != nil {
			pass.pendSum += r.pendSum
			pass.pendN += r.pendN
			pass.pendMax = max(pass.pendMax, r.pendMax)
			pass.tmMax = max(pass.tmMax, r.tmMax)
		}
		if r.stream != nil {
			recorded = r.stream
		}
	}
	if tr != nil {
		pass.spans = tr.spans
		pass.stream = append([]flowKey(nil), recorded...)
	}
	pass.blocks = append([]float64(nil), pass.blocks...) // before release
	return pass, nil
}

// crossCheck runs the workload's first input variant — the figure
// configuration — at a short length and compares it with the figure
// harness it mirrors.
func crossCheck(w *desWorkload) error {
	r := &desRun{heapSample: newHeapSample()}
	if err := w.build(r, w.policy, 0, w.checkLength); err != nil {
		return err
	}
	r.loop()
	if err := r.verify(); err != nil {
		return fmt.Errorf("%s cross-check run: %w", w.name, err)
	}
	if err := w.matchFigure(r, w.checkLength); err != nil {
		return fmt.Errorf("%s cross-check: %w", w.name, err)
	}
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWords folds five little-endian words into an FNV-1a state.
func fnvWords(h, a, b, c, d, e uint64) uint64 {
	for _, w := range [5]uint64{a, b, c, d, e} {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(w >> (8 * i)))
			h *= fnvPrime
		}
	}
	return h
}

// compile parses and compiles an fv script.
func compile(script string) (*tree.Tree, []classifier.Rule, string, error) {
	s, err := fvconf.Parse(script)
	if err != nil {
		return nil, nil, "", err
	}
	t, rules, err := s.Compile()
	if err != nil {
		return nil, nil, "", err
	}
	return t, rules, s.DefaultClass, nil
}

// assemble builds the classifier, scheduler and NIC for a policy.
func (r *desRun) assemble(script string) (*tree.Tree, error) {
	t, rules, def, err := compile(script)
	if err != nil {
		return nil, err
	}
	if r.cls, err = classifier.NewSized(t, rules, def, classifier.CacheConfig{}); err != nil {
		return nil, err
	}
	s, err := core.New(t, r.eng.Clock(), core.Config{})
	if err != nil {
		return nil, err
	}
	r.dev, err = nic.New(r.eng, nicConfig, r.cls, r.scheduler(s), r.callbacks())
	return t, err
}

// variantRNG returns the input variant's generator; variant 0 is the
// figure configuration and takes no randomness.
func variantRNG(variant uint64) *sim.RNG {
	if variant == 0 {
		return nil
	}
	return sim.NewRNG(variant)
}

// jitter returns a start-phase offset in [0, n) for non-zero variants.
func jitter(rng *sim.RNG, n int64) int64 {
	if rng == nil || n <= 0 {
		return 0
	}
	return rng.Int63n(n)
}

// sat64Paper is the paper's Fig 13 FlowValve rate at 64 B, in Mpps.
const sat64Paper = 19.69

// buildSat64 assembles the Fig 13 64 B point: the fair-queue policy over
// 40G, four apps of four flows, open-loop saturators offering 1.3× the
// bottleneck, NIC batch 1; throughput counted after a warm-up as long as
// the measured window.
func buildSat64(r *desRun, policy string, variant uint64, d int64) error {
	const size = 64
	warm := d
	r.begin(warm+d, warm+d+1e6)
	if _, err := r.assemble(policy); err != nil {
		return err
	}
	counter := &experiments.DeliveredCounter{WarmNs: warm}
	r.onDeliver = counter.Callbacks().OnDeliver
	r.atStop = func() {
		r.figValue = counter.Pps(d) / 1e6
		r.modelErr = math.Abs(r.figValue-sat64Paper) / sat64Paper
	}

	cfg := r.dev.Config()
	procPps := float64(cfg.Cores) * cfg.CoreFreqHz / float64(cfg.Costs.PerPacket(2))
	linePps := 40e9 / float64((size+packet.WireOverhead)*8)
	offeredBps := 1.3 * min(linePps, procPps) * size * 8
	intervalNs := int64(float64(size*8) / (offeredBps / 4) * 1e9)
	rng := variantRNG(variant)
	base := packet.FlowID(variant%1024) * 64
	alloc := &packet.Alloc{}
	for app := 0; app < 4; app++ {
		flows := make([]packet.FlowID, 4)
		for i := range flows {
			flows[i] = base + packet.FlowID(app*4+i)
		}
		start := int64(app)*intervalNs/4 + jitter(rng, intervalNs)
		s, err := trafficgen.NewSaturator(r.eng, alloc, flows, packet.AppID(app), size,
			offeredBps/4, start, warm+d, r.send)
		if err != nil {
			return err
		}
		r.sats = append(r.sats, s)
	}
	return nil
}

// motivationRef holds the paper's Fig 11a per-app window means in Gbps
// (apps NC, KVS, ML, WS; the values fvsim prints), over the second
// windows fvsim reports at scale 1.
var motivationRef = []struct {
	fromS, toS int64
	gbps       [4]float64
}{
	{2, 15, [4]float64{10, 0, 0, 0}},
	{17, 30, [4]float64{0, 4.67, 2, 3.33}},
	{32, 45, [4]float64{0, 8, 2, 0}},
}

// motivationErr is the largest relative error of a per-app window mean
// against a non-zero paper value.
func motivationErr(m *stats.ThroughputMeter, series []string, scale float64) float64 {
	var worst float64
	for _, w := range motivationRef {
		from := int64(scale * float64(w.fromS) * 1e9)
		to := int64(scale * float64(w.toS) * 1e9)
		for app, ref := range w.gbps {
			if ref == 0 {
				continue
			}
			got := m.MeanBps(series[app], from, to) / 1e9
			worst = max(worst, math.Abs(got-ref)/ref)
		}
	}
	return worst
}

// buildTCPMotivation assembles Fig 11a: the motivation policy on the 40G
// wire, one closed-loop TCP connection per app with 16 KB TSO segments,
// NC stopping at 1/3 and WS at 2/3 of the run.
func buildTCPMotivation(r *desRun, policy string, variant uint64, length int64) error {
	scale := float64(length) / 45e9
	scaled := func(s int64) int64 { return int64(scale * float64(s) * 1e9) }
	r.begin(length, length+2e6)
	if _, err := r.assemble(policy); err != nil {
		return err
	}
	meter := stats.NewThroughputMeter(scaled(1))
	series := []string{experiments.AppSeries(0), experiments.AppSeries(1), experiments.AppSeries(2), experiments.AppSeries(3)}
	r.onDeliver = func(p *packet.Packet) { meter.Add(series[p.App], p.Size, p.EgressAt) }
	r.atStop = func() {
		r.qdiscStop = r.dev.QdiscStats()
		r.modelErr = motivationErr(meter, series, scale)
	}
	r.tcps = tcp.NewSet()
	rng := variantRNG(variant)
	base := packet.FlowID(variant%1024) * 16
	alloc := &packet.Alloc{}
	stops := []int64{scaled(15), length, length, scaled(30)}
	for app, stop := range stops {
		f, err := tcp.NewFlow(r.eng, alloc, base+packet.FlowID(app), packet.AppID(app),
			tcp.Config{SegBytes: 16 * 1024, BaseRTTNs: 200_000}, r.send)
		if err != nil {
			return err
		}
		r.tcps.Add(f)
		r.flows = append(r.flows, f)
		f.StartAt(jitter(rng, 5_000))
		f.StopAt(stop)
	}
	return nil
}

// buildOffloadChurn assembles the offload lab's adaptive-fed row: eight
// open-loop elephants plus two TCP elephants per app on the 40G
// fair-queue policy, 200k mouse flows/s churning on two apps, a
// 256-entry rule table at 220k rules/s and the HTB slow path on 2 host
// cores.
func buildOffloadChurn(r *desRun, policy string, variant uint64, length int64) error {
	const (
		apps, churnApps = 4, 2
		elephants       = 8
		elephantBytes   = 1000
		tcpPerApp       = 2
	)
	r.begin(length, length+5e6)
	if _, err := r.assemble(policy); err != nil {
		return err
	}
	ctl, err := offload.New(offload.Config{
		TableCap:    256,
		RulesPerSec: 220_000,
		Policy:      offload.NewAdaptive(offload.AdaptiveConfig{}),
	})
	if err != nil {
		return err
	}
	if err := r.dev.AttachOffload(ctl, nic.SlowPathConfig{Host: host.Config{Cores: 2}}); err != nil {
		return err
	}
	r.tcps = tcp.NewSet()
	r.atEnd = func() { r.modelErr = fairShareErr(r.appBytes[:]) }
	rng := variantRNG(variant)
	shift := packet.FlowID(variant % 64)
	alloc := &packet.Alloc{}
	for app := 0; app < apps; app++ {
		flows := make([]packet.FlowID, elephants)
		for i := range flows {
			flows[i] = shift*64 + packet.FlowID(app*elephants+i)
		}
		s, err := trafficgen.NewSaturator(r.eng, alloc, flows, packet.AppID(app),
			elephantBytes, 1.25*40e9/apps, int64(app)*977+jitter(rng, 977), length, r.send)
		if err != nil {
			return err
		}
		r.sats = append(r.sats, s)
	}
	for app := 0; app < apps; app++ {
		for i := 0; i < tcpPerApp; i++ {
			id := 0x80000 + shift*1024 + packet.FlowID(app*256+i)
			f, err := tcp.NewFlow(r.eng, alloc, id, packet.AppID(app), tcp.Config{SegBytes: elephantBytes}, r.send)
			if err != nil {
				return err
			}
			r.tcps.Add(f)
			r.flows = append(r.flows, f)
			f.StartAt(int64(app)*977 + int64(i+1)*3001 + jitter(rng, 977))
			f.StopAt(length)
		}
	}
	seed := 1 + variant
	for i := 0; i < churnApps; i++ {
		app := apps - churnApps + i
		g, err := trafficgen.NewChurn(r.eng, alloc, packet.AppID(app), 200,
			200_000/churnApps, 8, 2_000, packet.FlowID(0x100000*(i+1))+shift*4096, 0, length,
			seed+uint64(app)*1_000_003, r.send)
		if err != nil {
			return err
		}
		r.churn = append(r.churn, g)
	}
	return nil
}

// fairShareErr is the mean absolute distance of the apps' delivered
// byte shares from an equal split.
func fairShareErr(appBytes []uint64) float64 {
	var total float64
	for _, b := range appBytes {
		total += float64(b)
	}
	if total == 0 {
		return 1
	}
	var sum float64
	for _, b := range appBytes {
		sum += math.Abs(float64(b)/total - 1/float64(len(appBytes)))
	}
	return sum / float64(len(appBytes))
}
