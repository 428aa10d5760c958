package nic

// CostModel is the per-stage cycle cost table of the worker pipeline.
//
// Calibration. The paper measures FlowValve forwarding 64B packets at
// 19.69Mpps while enforcing a fair-queueing policy (Fig 13). With the
// modelled 50 worker contexts at 800MHz that budget is
//
//	50 × 800e6 / 19.69e6 ≈ 2031 cycles/packet.
//
// The fair-queueing tree has a two-class path (root → leaf), so the
// default table sums to 1740 + 60 + 2×60 + 40 + 70 (amortized update
// share ≈ 0) ≈ 1970–2030 cycles per packet depending on cache and update
// behaviour, reproducing the paper's processing-bound small-packet rate
// while leaving 1518B and 1024B packets line-rate-bound (3.24/4.77 Mpps
// at 40Gbps), as in Fig 13.
type CostModel struct {
	// Pipeline covers the fixed stages outside classification and
	// scheduling: Rx DMA pull, buffer allocation, header rewrite, Tx
	// DMA descriptor setup, reorder bookkeeping.
	Pipeline int64
	// PipelineBatch is the share of Pipeline that is fixed per service
	// batch rather than per packet (ring doorbell read, buffer credit
	// pull, reorder-slot allocation). A service routine charges
	// PipelineBatch once plus Pipeline−PipelineBatch per packet, so a
	// burst of one is charged exactly Pipeline.
	PipelineBatch int64
	// Parse is header parsing up to the classification key.
	Parse int64
	// CacheHit / CacheMiss are the exact-match flow cache outcomes;
	// a miss walks the filter rules (the 10× gap the paper cites).
	CacheHit  int64
	CacheMiss int64
	// CacheEvict is the extra charge when a miss's insert displaces a
	// live entry: the CLOCK sweep over the probe window plus the
	// victim's writeback.
	CacheEvict int64
	// SchedPerClass is charged per class on the hierarchy label (the
	// lastSeen stamp, try-lock, and consumption count).
	SchedPerClass int64
	// Meter is the leaf meter instruction.
	Meter int64
	// Update is charged per executed epoch update (token arithmetic,
	// child-rate recomputation).
	Update int64
	// Borrow is charged per shadow-bucket query on the borrow chain.
	Borrow int64
	// TxEnqueue covers the traffic-manager enqueue of forwarded
	// packets.
	TxEnqueue int64
	// ShardSteer is charged per classified packet when the scheduling
	// function is sharded: the owner-shard hash plus the feed-ring
	// ticket CAS that steers the packet to its shard engine.
	ShardSteer int64
	// ShardDoorbell is charged once per shard feed lane a service burst
	// touches: the write that wakes the shard engine to drain its ring.
	ShardDoorbell int64
	// RuleInstall / RuleEvict are charged per offload rule-table
	// operation executed by the control tick (internal/offload): the
	// exact-match table write plus the wildcard-rule shadow update, and
	// the delete plus free-list relink. They land on the worker budget —
	// rule churn steals the same micro-engine cycles that forward
	// packets, which is why the insertion rate is bounded.
	RuleInstall int64
	RuleEvict   int64
	// SlowPath is the NIC-side exception-path charge for a packet whose
	// flow holds no fast-path rule: the miss verdict and the host-bound
	// descriptor setup. The host-side cost is modelled separately by
	// SlowPathConfig.CyclesPerPkt.
	SlowPath int64
	// MemStall is the per-packet memory-access latency (DMA pulls,
	// CTM/DRAM reads) in cycles. It adds to a packet's service LATENCY
	// but not to a micro-engine's occupancy as long as the ME has
	// enough hardware thread contexts to switch to while one context
	// waits (§III-B: "the processing core is further threaded").
	MemStall int64
}

// Defaults fills unset fields with the calibrated values.
func (c CostModel) Defaults() CostModel {
	if c.Pipeline <= 0 {
		c.Pipeline = 1290
	}
	if c.PipelineBatch <= 0 {
		c.PipelineBatch = 400
	}
	if c.PipelineBatch > c.Pipeline {
		c.PipelineBatch = c.Pipeline
	}
	if c.Parse <= 0 {
		c.Parse = 120
	}
	if c.CacheHit <= 0 {
		c.CacheHit = 60
	}
	if c.CacheMiss <= 0 {
		c.CacheMiss = 600
	}
	if c.CacheEvict <= 0 {
		c.CacheEvict = 200
	}
	if c.SchedPerClass <= 0 {
		c.SchedPerClass = 60
	}
	if c.Meter <= 0 {
		c.Meter = 40
	}
	if c.Update <= 0 {
		c.Update = 260
	}
	if c.Borrow <= 0 {
		c.Borrow = 40
	}
	if c.TxEnqueue <= 0 {
		c.TxEnqueue = 400
	}
	if c.ShardSteer <= 0 {
		c.ShardSteer = 20
	}
	if c.ShardDoorbell <= 0 {
		c.ShardDoorbell = 80
	}
	if c.RuleInstall <= 0 {
		c.RuleInstall = 2600
	}
	if c.RuleEvict <= 0 {
		c.RuleEvict = 1400
	}
	if c.SlowPath <= 0 {
		c.SlowPath = 160
	}
	if c.MemStall <= 0 {
		c.MemStall = 3000
	}
	return c
}

// PerPacket returns the nominal forwarding cost for a path of the given
// length with a cache hit and no epoch update — the steady-state cost
// used by capacity estimations in the experiment harnesses.
func (c CostModel) PerPacket(pathLen int) int64 {
	return c.Pipeline + c.Parse + c.CacheHit +
		c.SchedPerClass*int64(pathLen) + c.Meter + c.TxEnqueue
}
