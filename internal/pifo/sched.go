package pifo

import (
	"fmt"
	"sync"

	"flowvalve/internal/clock"
	"flowvalve/internal/dataplane"
	"flowvalve/internal/sched/tree"
)

// virtualMTU sizes the Scheduler plane's virtual queue: CapPkts packets
// of one MTU each, in bytes.
const virtualMTU = 1500

// Sched is the label-plane face of a pifo-family backend: a synchronous
// admit/drop decision (dataplane.Scheduler, plus a per-packet Schedule)
// against a virtual queue drained at the link rate. It is the same
// algorithmic shape as FlowValve's Algorithm 1 — rank the packet, test
// the backend's admission filter, forward or drop — so fvbench drives
// the whole family through the interface it already speaks.
//
// Only admission is modeled on this plane (there is no reordering to
// observe in a synchronous verdict), so the exact PIFO and Eiffel reduce
// to tail drop here; their ordering behaviour lives on the Qdisc plane.
// SP-PIFO's bound adaptation, AIFO/RIFO's rank windows, and fvrank's
// horizon run identically on both planes via the shared admission logic.
//
// Sched is safe for concurrent use; decisions serialize on one mutex
// (the global-qdisc-lock model, matching the kernel baselines).
type Sched struct {
	mu sync.Mutex

	clk clock.Clock
	// manualClk/wallClk cache the concrete type behind clk so the
	// per-decision time read dispatches statically (same devirt as
	// core.Scheduler.now).
	manualClk *clock.Manual
	wallClk   *clock.Wall
	pol       Policy
	adm       admitter

	drainBps float64
	lastNs   int64

	forwarded uint64
	dropped   uint64
}

// NewSched builds the label-plane adapter for cfg.Backend. The policy
// instance must be exclusive to this Sched. If the policy can bind to a
// scheduling tree, bind it before issuing decisions.
func NewSched(clk clock.Clock, cfg Config, pol Policy) (*Sched, error) {
	if clk == nil || pol == nil {
		return nil, fmt.Errorf("pifo: nil clock or policy")
	}
	cfg.Defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	adm, err := newAdmitter(&cfg)
	if err != nil {
		return nil, err
	}
	s := &Sched{clk: clk, pol: pol, adm: adm, drainBps: cfg.LinkRateBps, lastNs: clk.Now()}
	switch c := clk.(type) {
	case *clock.Manual:
		s.manualClk = c
	case *clock.Wall:
		s.wallClk = c
	}
	return s, nil
}

// now reads the clock through the concrete fast path probed at
// construction.
//
//fv:hotpath
func (s *Sched) now() int64 {
	if m := s.manualClk; m != nil {
		return m.Now()
	}
	if w := s.wallClk; w != nil {
		return w.Now()
	}
	//fv:boxing-ok out-of-tree Clock implementations take the virtual slow path; both stock clocks devirtualize above
	return s.clk.Now()
}

// Stats returns cumulative forwarded/dropped decision counts.
func (s *Sched) Stats() (forwarded, dropped uint64) {
	s.mu.Lock()
	forwarded, dropped = s.forwarded, s.dropped
	s.mu.Unlock()
	return forwarded, dropped
}

// Schedule decides one packet: ScheduleBatch's reference at batch
// size 1, pinned by the conformance suite.
//
//fv:hotpath
func (s *Sched) Schedule(lbl *tree.Label, size int) dataplane.Decision {
	s.mu.Lock()
	now := s.now()
	s.drainTickLocked(now)
	d := s.decideLocked(lbl, size, now, 1)
	s.mu.Unlock()
	return d
}

// ScheduleBatch implements dataplane.Scheduler: one lock acquisition,
// one clock read, and one virtual-queue drain are amortized over the
// burst; per-request work is rank + admission only. Under a clock that
// does not advance mid-call the decision sequence is identical to
// batch-1 calls — the conformance suite pins that equivalence.
//
//fv:hotpath
func (s *Sched) ScheduleBatch(reqs []dataplane.Request, out []dataplane.Decision) {
	n := len(reqs)
	if n == 0 {
		return
	}
	s.mu.Lock()
	now := s.now()
	s.drainTickLocked(now)
	for i := 0; i < n; i++ {
		out[i] = s.decideLocked(reqs[i].Label, reqs[i].Size, now, n)
	}
	s.mu.Unlock()
}

// decideLocked ranks and admits one packet. Callers hold s.mu.
//
//fv:hotpath
func (s *Sched) decideLocked(lbl *tree.Label, size int, nowNs int64, batched int) dataplane.Decision {
	r := s.pol.LabelRank(lbl, size, nowNs) //fv:boxing-ok the rank policy is the pifo family's pluggable surface, chosen once at construction
	if s.adm.admitLocked(r, size, nowNs) { //fv:boxing-ok the admission filter is the pifo family's pluggable surface, chosen once at construction
		s.forwarded++
		return dataplane.Decision{Verdict: dataplane.Forward, Batched: batched}
	}
	s.dropped++
	return dataplane.Decision{Verdict: dataplane.Drop, Batched: batched}
}

// drainTickLocked advances the virtual queue: the wire drained
// drainBps·dt bits since the last decision. Callers hold s.mu.
//
//fv:hotpath
func (s *Sched) drainTickLocked(nowNs int64) {
	dt := nowNs - s.lastNs
	if dt <= 0 {
		return
	}
	s.lastNs = nowNs
	//fv:boxing-ok the admission filter is the pifo family's pluggable surface, chosen once at construction
	s.adm.drainLocked(int64(s.drainBps * float64(dt) / 8e9))
}

var _ dataplane.Scheduler = (*Sched)(nil)

// admitter is a backend's admission filter over a virtual byte-counted
// queue. Implementations are guarded by the owning Sched's mutex (the
// *Locked convention).
type admitter interface {
	// admitLocked decides one size-byte packet with rank r at nowNs,
	// charging the virtual queue on admission.
	admitLocked(r Rank, size int, nowNs int64) bool
	// drainLocked releases queued bytes transmitted since the last call.
	drainLocked(bytes int64)
}

func newAdmitter(cfg *Config) (admitter, error) {
	capBytes := int64(cfg.CapPkts) * virtualMTU
	switch cfg.Backend {
	case BackendPIFO, BackendEiffel:
		return &tailAdmitter{occ: occupancy{capBytes: capBytes}}, nil
	case BackendSPPIFO:
		bandCap := capBytes / int64(cfg.Bands)
		if bandCap < virtualMTU {
			bandCap = virtualMTU
		}
		return &sppifoAdmitter{
			bank:    newSPPIFO(cfg.CapPkts, cfg.Bands),
			bands:   make([]int64, cfg.Bands),
			bandCap: bandCap,
		}, nil
	case BackendAIFO:
		return &aifoAdmitter{
			occ:        occupancy{capBytes: capBytes},
			win:        newRankWindow(cfg.WindowPkts),
			admitScale: admitScale(cfg.WindowPkts, cfg.Headroom),
		}, nil
	case BackendRIFO:
		return &rifoAdmitter{
			occ: occupancy{capBytes: capBytes},
			win: newRankWindow(cfg.WindowPkts),
		}, nil
	case BackendTaildrop:
		return &horizonAdmitter{
			occ:       occupancy{capBytes: capBytes},
			horizonNs: cfg.HorizonNs,
		}, nil
	}
	return nil, fmt.Errorf("pifo: unknown backend %q (want %s)", cfg.Backend, BackendList())
}

// occupancy is a byte-counted virtual queue level shared by the
// admitters.
type occupancy struct {
	bytes    int64
	capBytes int64
}

//fv:hotpath
func (o *occupancy) drain(b int64) {
	o.bytes -= b
	if o.bytes < 0 {
		o.bytes = 0
	}
}

//fv:hotpath
func (o *occupancy) tryAdd(size int) bool {
	if o.bytes+int64(size) > o.capBytes {
		return false
	}
	o.bytes += int64(size)
	return true
}

// freeFrac returns the free fraction of the virtual queue in [0, 1].
//
//fv:hotpath
func (o *occupancy) freeFrac() float64 {
	return float64(o.capBytes-o.bytes) / float64(o.capBytes)
}

// tailAdmitter is plain tail drop: the exact PIFO and Eiffel never
// reject by rank, only by capacity.
type tailAdmitter struct{ occ occupancy }

//fv:hotpath
func (a *tailAdmitter) admitLocked(r Rank, size int, nowNs int64) bool {
	return a.occ.tryAdd(size)
}

//fv:hotpath
func (a *tailAdmitter) drainLocked(b int64) { a.occ.drain(b) }

// sppifoAdmitter reuses the SP-PIFO bank's band-selection and bound
// adaptation (bank holds no entries on this plane) over per-band
// virtual byte levels drained in strict-priority order.
type sppifoAdmitter struct {
	bank    *spPIFO
	bands   []int64
	bandCap int64
}

//fv:hotpath
func (a *sppifoAdmitter) admitLocked(r Rank, size int, nowNs int64) bool {
	band := a.bank.admitBand(r)
	if a.bands[band]+int64(size) > a.bandCap {
		a.bank.st.FullDrops++
		return false
	}
	a.bands[band] += int64(size)
	a.bank.st.Admitted++
	return true
}

//fv:hotpath
func (a *sppifoAdmitter) drainLocked(b int64) {
	for i := range a.bands {
		if b <= 0 {
			return
		}
		take := a.bands[i]
		if take > b {
			take = b
		}
		a.bands[i] -= take
		b -= take
	}
}

// aifoAdmitter runs AIFO's windowed-quantile test against the virtual
// free fraction.
type aifoAdmitter struct {
	occ        occupancy
	win        *rankWindow
	admitScale float64
}

//fv:hotpath
func (a *aifoAdmitter) admitLocked(r Rank, size int, nowNs int64) bool {
	quantile := a.win.countLess(r)
	a.win.observe(r)
	if !aifoAdmit(quantile, a.admitScale, a.occ.freeFrac()) {
		return false
	}
	return a.occ.tryAdd(size)
}

//fv:hotpath
func (a *aifoAdmitter) drainLocked(b int64) { a.occ.drain(b) }

// rifoAdmitter runs RIFO's range test against the virtual free fraction.
type rifoAdmitter struct {
	occ occupancy
	win *rankWindow
}

//fv:hotpath
func (a *rifoAdmitter) admitLocked(r Rank, size int, nowNs int64) bool {
	lo, hi, seeded := a.win.bounds()
	a.win.observe(r)
	if !rifoAdmit(r, lo, hi, seeded, a.occ.freeFrac()) {
		return false
	}
	return a.occ.tryAdd(size)
}

//fv:hotpath
func (a *rifoAdmitter) drainLocked(b int64) { a.occ.drain(b) }

// horizonAdmitter is FlowValve's tail drop: reject when the rank (the
// token-schedule deadline) runs more than the horizon ahead of now.
type horizonAdmitter struct {
	occ       occupancy
	horizonNs int64
}

//fv:hotpath
func (a *horizonAdmitter) admitLocked(r Rank, size int, nowNs int64) bool {
	if !horizonAdmit(r, nowNs, a.horizonNs) {
		return false
	}
	return a.occ.tryAdd(size)
}

//fv:hotpath
func (a *horizonAdmitter) drainLocked(b int64) { a.occ.drain(b) }
