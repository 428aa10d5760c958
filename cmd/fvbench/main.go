// Command fvbench is a packet-rate microbenchmark for the SmartNIC model
// and the scheduling function: it saturates a backend with fixed-size
// packets and reports delivered Mpps/Gbps — the tool behind the Fig 13
// sweep, exposed for ad-hoc what-if runs (different core counts, clock
// frequencies, packet sizes, tree depths, service batch sizes).
//
// Every backend is driven through the dataplane.Qdisc interface and
// measured with the same delivered-packet counter, so the numbers are
// comparable by construction.
//
// Usage:
//
//	fvbench -size 64 -cores 50 -freq 800e6 -duration 100ms
//	fvbench -size 1518 -depth 4           # deeper scheduling trees
//	fvbench -size 64 -batch 8             # batched Rx service
//	fvbench -backend dpdk -cores 4        # DPDK QoS baseline
//	fvbench -backend sppifo -rank wfq     # programmable-scheduler family
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flowvalve/internal/classifier"
	"flowvalve/internal/clock"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/dpdkqos"
	"flowvalve/internal/experiments"
	"flowvalve/internal/nic"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
	"flowvalve/internal/pifo"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
	"flowvalve/internal/telemetry"
	"flowvalve/internal/trafficgen"
)

// pifoApps is the number of competing senders driven at the
// programmable-scheduler family: one rank-policy slot per app.
const pifoApps = 4

// backendNames is the single source of truth for -backend: the two
// FlowValve-era backends plus the whole pifo registry. Flag help and
// the unknown-backend error both derive from it.
func backendNames() []string {
	return append([]string{"flowvalve", "dpdk"}, pifo.BackendNames()...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fvbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fvbench", flag.ContinueOnError)
	backend := fs.String("backend", "flowvalve", "backend to drive: "+strings.Join(backendNames(), " | "))
	rank := fs.String("rank", pifo.PolicyWFQ, "rank policy for pifo-family backends: "+strings.Join(pifo.PolicyNames(), " | "))
	size := fs.Int("size", 64, "frame size in bytes (incl. FCS)")
	cores := fs.Int("cores", 0, "worker cores (default: 50 NP contexts for flowvalve, 4 poll-mode cores for dpdk)")
	freq := fs.Float64("freq", 800e6, "NP core frequency (Hz)")
	wire := fs.Float64("wire", 40e9, "wire rate (bits/s)")
	depth := fs.Int("depth", 1, "scheduling-tree depth below the root (flowvalve)")
	batch := fs.Int("batch", 1, "NIC Rx service batch size (flowvalve; 1 = a burst of one per packet)")
	shards := fs.Int("shards", 1, "scheduler shards (flowvalve; >1 switches to a tenant tree partitioned across shards)")
	procs := fs.Int("procs", 0, "wall-clock parallel mode: run N scheduler shards on N producer/worker pairs and report pps scaling (bypasses the DES)")
	nflows := fs.Int("flows", 16, "distinct transport flows offered (drive past -cache-size to exercise eviction)")
	cacheSize := fs.Int("cache-size", 0, "flow-cache entry bound (flowvalve; 0 = default 65536)")
	cacheShards := fs.Int("cache-shards", 0, "flow-cache shard count (flowvalve; 0 = default 8)")
	offloadOn := fs.Bool("offload", false, "attach the offload control plane: only heavy hitters ride the fast path (flowvalve)")
	slowQdisc := fs.String("slowpath-qdisc", nic.SlowQdiscHTB, "slow-path scheduler for non-offloaded flows (with -offload): htb | prio")
	churnRate := fs.Float64("churn-rate", 0, "short-lived mouse-flow arrivals per second on the last app (flowvalve; 0 = none)")
	ruleRate := fs.Float64("rule-rate", 220e3, "offload rule-channel budget in rules/s (with -offload)")
	duration := fs.Duration("duration", 100*time.Millisecond, "measurement window (simulated)")
	metricsJSON := fs.String("metrics-json", "", "write a JSON metrics snapshot to this file after the run (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *procs > 0 {
		return runProcs(out, *procs, *size, *wire, *duration)
	}
	var reg *telemetry.Registry
	if *metricsJSON != "" {
		reg = telemetry.NewRegistry()
	}

	warm := duration.Nanoseconds()
	eng := sim.New()
	counter := &experiments.DeliveredCounter{WarmNs: warm}

	var (
		q       dataplane.Qdisc
		procPps float64
		header  string
		err     error
		ssched  *core.ShardedScheduler
		tenants int
	)
	switch *backend {
	case "flowvalve":
		cacheCfg := classifier.CacheConfig{Size: *cacheSize, Shards: *cacheShards}
		if *shards > 1 {
			tenants = 2 * *shards
		}
		q, ssched, procPps, header, err = buildFlowValve(eng, counter, reg, *size, *cores, *freq, *wire, *depth, *batch, *shards, tenants, cacheCfg, *offloadOn, *ruleRate, *slowQdisc)
	case "dpdk":
		q, procPps, header, err = buildDPDK(eng, counter, reg, *cores, *wire)
	default:
		if !pifo.IsBackend(*backend) {
			return fmt.Errorf("unknown backend %q (want %s)", *backend, strings.Join(backendNames(), " | "))
		}
		q, procPps, header, err = buildPifo(eng, counter, reg, *backend, *rank, *size, *wire)
	}
	if err != nil {
		return err
	}

	linePps := *wire / float64((*size+packet.WireOverhead)*8)
	offeredPps := 1.3 * min(linePps, procPps)

	alloc := &packet.Alloc{}
	if *nflows < 1 {
		*nflows = 1
	}
	flows := make([]packet.FlowID, *nflows)
	for i := range flows {
		flows[i] = packet.FlowID(i)
	}
	if pifo.IsBackend(*backend) {
		// The rank policies differentiate by app slot, so the family is
		// driven by pifoApps equal competing senders instead of one.
		perAppBps := offeredPps * float64(*size) * 8 / pifoApps
		for a := 0; a < pifoApps; a++ {
			if _, err := trafficgen.NewSaturator(eng, alloc, flows, packet.AppID(a), *size,
				perAppBps, 0, 2*warm, q.Enqueue); err != nil {
				return err
			}
		}
	} else if tenants > 0 {
		// Sharded mode: one sender per tenant app, so traffic spreads
		// across every scheduler shard's partition.
		perAppBps := offeredPps * float64(*size) * 8 / float64(tenants)
		for a := 0; a < tenants; a++ {
			if _, err := trafficgen.NewSaturator(eng, alloc, flows, packet.AppID(a), *size,
				perAppBps, 0, 2*warm, q.Enqueue); err != nil {
				return err
			}
		}
	} else if _, err := trafficgen.NewSaturator(eng, alloc, flows, 0, *size,
		offeredPps*float64(*size)*8, 0, 2*warm, q.Enqueue); err != nil {
		return err
	}
	if *churnRate > 0 {
		// Mouse-flow churn rides on the last app, flow IDs far above the
		// saturator's so every arrival is a brand-new connection.
		churnApp := packet.AppID(0)
		if tenants > 0 {
			churnApp = packet.AppID(tenants - 1)
		}
		if _, err := trafficgen.NewChurn(eng, alloc, churnApp, *size,
			*churnRate, 8, 2_000, packet.FlowID(1<<20), 0, 2*warm, 1, q.Enqueue); err != nil {
			return err
		}
	}
	eng.RunUntil(2 * warm)

	pps := counter.Pps(warm)
	st := q.QdiscStats()
	fmt.Fprintf(out, "%s\n", header)
	fmt.Fprintf(out, "delivered: %.2f Mpps  (%.2f Gbps wire)\n", pps/1e6, pps*float64(*size+packet.WireOverhead)*8/1e9)
	fmt.Fprintf(out, "bottleneck: line=%.2f Mpps  processing=%.2f Mpps\n", linePps/1e6, procPps/1e6)
	fmt.Fprintf(out, "enqueued=%d delivered=%d dropped=%d\n", st.Enqueued, st.Delivered, st.Dropped)
	if dev, ok := q.(*nic.NIC); ok {
		ns := dev.Stats()
		fmt.Fprintf(out, "drops: sched=%d rx-ring=%d tm=%d shard-ring=%d\n",
			ns.SchedDrops, ns.RxRingDrops, ns.TMDrops, ns.ShardRingDrops)
	}
	if ssched != nil {
		fmt.Fprintf(out, "shards: n=%d settles=%d\n", ssched.Shards(), ssched.Settles())
	}
	if fc, ok := q.(dataplane.FlowCacher); ok {
		cs := fc.FlowCacheStats()
		fmt.Fprintf(out, "flowcache: hits=%d misses=%d evictions=%d size=%d/%d (shards=%d)\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Size, cs.Capacity, cs.Shards)
	}
	if acct, ok := q.(dataplane.HostAccountant); ok {
		fmt.Fprintf(out, "host cores: %.2f\n", acct.HostCores(2*warm))
	}
	if off, ok := q.(dataplane.Offloader); ok {
		if os := off.OffloadStats(); os.Enabled {
			tot := os.FastPkts + os.SlowPkts
			var slowShare float64
			if tot > 0 {
				slowShare = float64(os.SlowPkts) / float64(tot)
			}
			fmt.Fprintf(out, "offload: policy=%s flows=%d/%d slow-share=%.1f%% threshold=%dB installs=%d demotions=%d queue-drops=%d shed=%d\n",
				os.Policy, os.Offloaded, os.TableCap, slowShare*100,
				os.ThresholdBytes, os.Installs, os.Demotions, os.QueueDrops, os.SlowPathDrops)
		}
	}
	if pq, ok := q.(*pifo.Qdisc); ok {
		qs := pq.QueueStats()
		fmt.Fprintf(out, "pifo: inversions=%d drops(rank/full/evict)=%d/%d/%d adaptations(up/down)=%d/%d\n",
			pq.Inversions(), qs.RankDrops, qs.FullDrops, qs.EvictDrops, qs.PushUps, qs.PushDowns)
	}
	if reg != nil {
		w := out
		if *metricsJSON != "-" {
			f, err := os.Create(*metricsJSON)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := reg.WriteJSON(w); err != nil {
			return err
		}
	}
	return nil
}

// buildFlowValve assembles the offloaded backend on the NIC model. With
// shards > 1 the chain policy is replaced by a tenant tree (one subtree
// per tenant, `tenants` of them) partitioned across scheduler shards,
// and the NIC pays the shard steer/doorbell costs.
func buildFlowValve(eng *sim.Engine, counter *experiments.DeliveredCounter, reg *telemetry.Registry,
	size, cores int, freq, wire float64, depth, batch, shards, tenants int,
	cache classifier.CacheConfig, offloadOn bool, ruleRate float64, slowQdisc string) (dataplane.Qdisc, *core.ShardedScheduler, float64, string, error) {
	if cores <= 0 {
		cores = 50
	}
	var (
		t     *tree.Tree
		rules []classifier.Rule
		err   error
	)
	if shards > 1 {
		t, rules, err = tenantPolicy(wire, tenants)
	} else {
		t, rules, err = chainPolicy(wire, depth)
	}
	if err != nil {
		return nil, nil, 0, "", err
	}
	cls, err := classifier.NewSized(t, rules, "", cache)
	if err != nil {
		return nil, nil, 0, "", err
	}
	sched, err := core.NewSharded(t, eng.Clock(), core.Config{}, core.ShardConfig{Shards: shards})
	if err != nil {
		return nil, nil, 0, "", err
	}
	if reg != nil {
		sched.AttachTelemetry(reg, nil)
	}
	cb := counter.Callbacks()
	dev, err := nic.New(eng, nic.Config{
		Cores:       cores,
		CoreFreqHz:  freq,
		WireRateBps: wire,
		WirePorts:   4,
		BatchSize:   batch,
	}, cls, sched, nic.Callbacks{OnDeliver: cb.OnDeliver})
	if err != nil {
		return nil, nil, 0, "", err
	}
	if offloadOn {
		ctl, err := offload.New(offload.Config{RulesPerSec: ruleRate})
		if err != nil {
			return nil, nil, 0, "", err
		}
		if err := dev.AttachOffload(ctl, nic.SlowPathConfig{Qdisc: slowQdisc}); err != nil {
			return nil, nil, 0, "", err
		}
	}
	if reg != nil {
		dev.AttachTelemetry(reg)
	}
	cfg := dev.Config()
	procPps := float64(cfg.Cores) * cfg.CoreFreqHz / float64(cfg.Costs.PerPacket(depth+1))
	header := fmt.Sprintf("backend=flowvalve size=%dB cores=%d freq=%.0fMHz depth=%d batch=%d",
		size, cores, freq/1e6, depth, cfg.BatchSize)
	if shards > 1 {
		header += fmt.Sprintf(" shards=%d tenants=%d", shards, tenants)
	}
	if offloadOn {
		header += fmt.Sprintf(" offload=on rule-rate=%.0fk/s slowpath=%s", ruleRate/1e3, slowQdisc)
	}
	return dev, sched, procPps, header, nil
}

// buildPifo assembles one programmable-scheduler backend from the pifo
// registry. The structures are O(log n) or better and not the modelled
// bottleneck, so the processing bound is the wire itself.
func buildPifo(eng *sim.Engine, counter *experiments.DeliveredCounter, reg *telemetry.Registry,
	backend, rank string, size int, wire float64) (dataplane.Qdisc, float64, string, error) {
	pol, err := pifo.NewPolicy(rank, pifoApps, wire)
	if err != nil {
		return nil, 0, "", err
	}
	cfg := pifo.Config{Backend: backend, LinkRateBps: wire}
	cfg.Defaults()
	q, err := pifo.NewQdisc(eng, cfg, pol, counter.Callbacks())
	if err != nil {
		return nil, 0, "", err
	}
	if reg != nil {
		q.AttachTelemetry(reg)
	}
	procPps := wire / float64((size+packet.WireOverhead)*8)
	header := fmt.Sprintf("backend=%s rank=%s size=%dB cap=%dpkts", backend, rank, size, cfg.CapPkts)
	return q, procPps, header, nil
}

// buildDPDK assembles the DPDK QoS Scheduler baseline: four fair pipes
// on dedicated poll-mode cores.
func buildDPDK(eng *sim.Engine, counter *experiments.DeliveredCounter, reg *telemetry.Registry,
	cores int, wire float64) (dataplane.Qdisc, float64, string, error) {
	if cores <= 0 {
		cores = 4
	}
	pipe := dpdkqos.PipeConfig{RateBps: wire / 4}
	cfg := dpdkqos.Config{
		LinkRateBps: wire,
		Cores:       cores,
		Pipes:       []dpdkqos.PipeConfig{pipe, pipe, pipe, pipe},
	}.Defaults()
	sched, err := dpdkqos.New(eng, cfg,
		func(p *packet.Packet) int { return int(p.Flow) % len(cfg.Pipes) },
		counter.Callbacks())
	if err != nil {
		return nil, 0, "", err
	}
	if reg != nil {
		sched.AttachTelemetry(reg)
	}
	procPps := float64(cores) * cfg.Host.FreqHz / float64(cfg.CyclesPerPkt)
	header := fmt.Sprintf("backend=dpdk cores=%d", cores)
	return sched, procPps, header, nil
}

// chainPolicy builds a policy whose leaf sits `depth` levels below the
// root, with a single match-all rule — isolating per-class scheduling
// cost.
func chainPolicy(wireBps float64, depth int) (*tree.Tree, []classifier.Rule, error) {
	if depth < 1 {
		depth = 1
	}
	b := tree.NewBuilder().Root("root", wireBps)
	parent := "root"
	for d := 1; d <= depth; d++ {
		name := fmt.Sprintf("c%d", d)
		b.Add(tree.ClassSpec{Name: name, Parent: parent})
		parent = name
	}
	t, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	rules := []classifier.Rule{{App: classifier.AnyApp, Flow: classifier.AnyFlow, Class: parent}}
	return t, rules, nil
}

// tenantPolicy builds one subtree per tenant — tenant<K> holding a
// single leaf t<K>app guaranteed half its fair share, borrowing the
// rest from root's shadow bucket. Sharded schedulers partition whole
// tenant subtrees, so root is the only split class and the borrow
// labels exercise cross-shard leases. App K maps to tenant K's leaf.
func tenantPolicy(wireBps float64, tenants int) (*tree.Tree, []classifier.Rule, error) {
	if tenants < 1 {
		tenants = 1
	}
	b := tree.NewBuilder().Root("root", wireBps)
	rules := make([]classifier.Rule, 0, tenants)
	for k := 0; k < tenants; k++ {
		tn := fmt.Sprintf("tenant%d", k)
		leaf := fmt.Sprintf("t%dapp", k)
		b.Add(tree.ClassSpec{Name: tn, Parent: "root", Weight: 1})
		b.Add(tree.ClassSpec{
			Name: leaf, Parent: tn, Weight: 1,
			RateBps:    wireBps / float64(2*tenants),
			BorrowFrom: []string{"root"},
		})
		rules = append(rules, classifier.Rule{App: k, Flow: classifier.AnyFlow, Class: leaf})
	}
	t, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return t, rules, nil
}

// runProcs is the wall-clock parallel mode: no DES, no NIC model —
// just N scheduler shards on their worker goroutines, fed through the
// MPSC rings by N producers. It reports raw scheduled pps, the number
// to compare across -procs values for the scaling curve.
func runProcs(out io.Writer, procs, size int, wire float64, dur time.Duration) error {
	if procs < 1 {
		procs = 1
	}
	tenants := 2 * procs
	t, _, err := tenantPolicy(wire, tenants)
	if err != nil {
		return err
	}
	sched, err := core.NewSharded(t, clock.NewWall(), core.Config{},
		core.ShardConfig{Shards: procs})
	if err != nil {
		return err
	}
	labels := make([]*tree.Label, tenants)
	for a := 0; a < tenants; a++ {
		lbl, ok := t.LabelByName(fmt.Sprintf("t%dapp", a))
		if !ok {
			return fmt.Errorf("tenant leaf t%dapp missing", a)
		}
		labels[a] = lbl
	}
	if err := sched.StartWorkers(); err != nil {
		return err
	}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Offset the starting tenant so producers do not march in
			// lockstep over the same shard's ring.
			i := 2 * p
			for !stop.Load() {
				if !sched.Feed(labels[i%tenants], size) {
					runtime.Gosched()
					continue
				}
				i++
			}
		}(p)
	}
	start := time.Now()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	sched.StopWorkers()
	secs := time.Since(start).Seconds()
	pps := float64(sched.Processed()) / secs
	fmt.Fprintf(out, "procs=%d gomaxprocs=%d shards=%d tenants=%d size=%dB\n",
		procs, runtime.GOMAXPROCS(0), sched.Shards(), tenants, size)
	fmt.Fprintf(out, "scheduled: %.2f Mpps over %.3fs  ring-drops=%d settles=%d\n",
		pps/1e6, secs, sched.RingDrops(), sched.Settles())
	return nil
}
