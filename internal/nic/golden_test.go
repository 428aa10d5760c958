package nic

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"flowvalve/internal/classifier"
	"flowvalve/internal/core"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/offload"
	"flowvalve/internal/packet"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/sim"
)

// goldenRun drives a short seeded overload through a NIC with a small
// flow cache, a small Rx ring and an offload control plane attached, so
// the service routine sees cache hits, misses and evictions,
// unclassified packets, scheduler drops, slow-path detours and, with two
// shards, shard steering. It returns an FNV-64a digest of the delivery
// order, every egress time, every drop and every Stats() counter.
func goldenRun(t *testing.T, batch, shards int) uint64 {
	t.Helper()
	tr := tree.NewBuilder().
		Root("root", 3e9).
		Add(tree.ClassSpec{Name: "t0", Parent: "root", Weight: 2}).
		Add(tree.ClassSpec{Name: "t1", Parent: "root", Weight: 1}).
		Add(tree.ClassSpec{Name: "a0", Parent: "t0", Weight: 3}).
		Add(tree.ClassSpec{Name: "a1", Parent: "t0", Weight: 1, CeilBps: 0.5e9}).
		Add(tree.ClassSpec{Name: "a2", Parent: "t1", Weight: 1}).
		Add(tree.ClassSpec{Name: "a3", Parent: "t1", Weight: 1}).
		MustBuild()
	rules := []classifier.Rule{
		{App: 0, Flow: classifier.AnyFlow, Class: "a0"},
		{App: 1, Flow: classifier.AnyFlow, Class: "a1"},
		{App: 2, Flow: classifier.AnyFlow, Class: "a2"},
		{App: 3, Flow: classifier.AnyFlow, Class: "a3"},
	}
	eng := sim.New()
	cls, err := classifier.NewSized(tr, rules, "", classifier.CacheConfig{Size: 64, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sched dataplane.Scheduler
	if shards > 1 {
		sched, err = core.NewSharded(tr, eng.Clock(), core.Config{}, core.ShardConfig{Shards: shards})
	} else {
		sched, err = core.New(tr, eng.Clock(), core.Config{})
	}
	if err != nil {
		t.Fatal(err)
	}

	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	dev, err := New(eng, Config{
		Cores:        6,
		Clusters:     2,
		WireRateBps:  10e9,
		WirePorts:    2,
		TMQueueBytes: 48 * 1024,
		RxRingPkts:   48,
		BatchSize:    batch,
	}, cls, sched, Callbacks{
		OnDeliver: func(p *packet.Packet) {
			word(1)
			word(p.ID)
			word(uint64(p.EgressAt))
			if p.Marked {
				word(1)
			}
		},
		OnDrop: func(p *packet.Packet, reason DropReason) {
			word(2)
			word(p.ID)
			word(uint64(reason))
			word(uint64(eng.Now()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := offload.New(offload.Config{
		TableCap:              24,
		TopK:                  24,
		WindowNs:              200_000,
		TickNs:                100_000,
		InitialThresholdBytes: 6000,
		Policy:                offload.NewStatic(6000),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.AttachOffload(ctl, SlowPathConfig{}); err != nil {
		t.Fatal(err)
	}

	// Poisson arrivals at ≈12 Gbps over five apps (app 4 matches no
	// rule) and 160 flows, so the 64-entry cache churns.
	rng := rand.New(rand.NewSource(7))
	alloc := &packet.Alloc{}
	const horizon = 5_000_000
	at := int64(0)
	for at < horizon {
		size := 64 + rng.Intn(1455)
		at += int64(rng.ExpFloat64() * float64(size*8) / 12e9 * 1e9)
		flow := packet.FlowID(rng.Intn(160))
		p := alloc.New(flow, packet.AppID(int(flow)%5), size, at)
		eng.At(at, func() { dev.Inject(p) })
	}
	eng.RunUntil(horizon + 5_000_000)

	st := dev.Stats()
	for _, v := range []uint64{st.Injected, st.Delivered, st.SchedDrops, st.RxRingDrops, st.TMDrops,
		st.Unclassified, st.ShardRingDrops, st.SlowPathDrops, st.BufferDrops, math.Float64bits(st.BusyCycles)} {
		word(v)
	}
	for _, c := range st.ClusterBusyCycles {
		word(math.Float64bits(c))
	}
	fc := dev.FlowCacheStats()
	for _, v := range []uint64{fc.Hits, fc.Misses, fc.Evictions, uint64(fc.Size)} {
		word(v)
	}
	if st.Delivered == 0 || st.SchedDrops == 0 || st.Unclassified == 0 || fc.Evictions == 0 {
		t.Fatalf("golden run misses a branch: %+v, cache %+v", st, fc)
	}
	return h.Sum64()
}

// TestServiceGolden pins the NIC service routine's observable output to
// fixed digests. A change that alters any delivery, egress time, drop or
// counter — at batch size 1, at batch size 8, or with a 2-shard
// scheduler — fails here even if it is deterministic; the determinism
// tests only compare two runs of the same code. Update a digest only for
// an intended change to the model.
func TestServiceGolden(t *testing.T) {
	for _, tc := range []struct {
		batch, shards int
		want          uint64
	}{
		{batch: 1, shards: 1, want: 0xd76d0575ba73620b},
		{batch: 8, shards: 1, want: 0x244f39690abda15e},
		{batch: 1, shards: 2, want: 0x920cae3bc7dcc2be},
	} {
		t.Run(fmt.Sprintf("batch%d-shards%d", tc.batch, tc.shards), func(t *testing.T) {
			if got := goldenRun(t, tc.batch, tc.shards); got != tc.want {
				t.Fatalf("digest %#016x, want %#016x", got, tc.want)
			}
		})
	}
}
