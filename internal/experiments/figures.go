package experiments

import (
	"fmt"

	"flowvalve/internal/faults"
	"flowvalve/internal/fvconf"
	"flowvalve/internal/htb"
	"flowvalve/internal/nic"
	"flowvalve/internal/sched/tree"
	"flowvalve/internal/telemetry"
)

// Durations below reproduce the paper's timelines at scale 1.0; tests run
// scaled down. Stage boundaries follow the reconstruction documented in
// EXPERIMENTS.md: all four motivation apps start at 0s, NC stops at 15s,
// WS stops at 30s, the run ends at 45s.

const (
	second = int64(1e9)
)

// ScenarioOption adjusts a figure's scenario before it runs.
type ScenarioOption func(*TCPScenario)

// WithTelemetry attaches a metrics registry (and, for FlowValve runs, an
// optional decision tracer) to a figure's scenario, so the run can be
// scraped live or dumped afterwards.
func WithTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) ScenarioOption {
	return func(sc *TCPScenario) {
		sc.Telemetry = reg
		sc.Tracer = tr
	}
}

// WithNICBatch sets the SmartNIC model's Rx service burst for FlowValve
// runs: workers pull up to n ring packets per service routine and push
// them through one classify/schedule pass (n ≤ 1 services every packet
// as a burst of one).
func WithNICBatch(n int) ScenarioOption {
	return func(sc *TCPScenario) {
		sc.NIC.BatchSize = n
	}
}

// WithFaults injects a fault plan into a figure's scenario. Backends
// without fault hooks (the software baselines) run fault-free.
func WithFaults(p *faults.Plan) ScenarioOption {
	return func(sc *TCPScenario) {
		sc.Faults = p
	}
}

func applyOpts(sc *TCPScenario, opts []ScenarioOption) {
	for _, o := range opts {
		o(sc)
	}
}

func scaled(scale float64, seconds int64) int64 {
	if scale <= 0 {
		scale = 1
	}
	return int64(scale * float64(seconds) * float64(second))
}

// motivationApps is the staged workload of Fig 3 / Fig 11(a).
// Apps: 0=NC, 1=KVS, 2=ML, 3=WS.
func motivationApps(scale float64) []AppSpec {
	return []AppSpec{
		{App: 0, Conns: 1, StartNs: 0, StopNs: scaled(scale, 15)},
		{App: 1, Conns: 1, StartNs: 0, StopNs: scaled(scale, 45)},
		{App: 2, Conns: 1, StartNs: 0, StopNs: scaled(scale, 45)},
		{App: 3, Conns: 1, StartNs: 0, StopNs: scaled(scale, 30)},
	}
}

// motivationScenario compiles the fv motivation policy into a FlowValve
// scenario.
func motivationScenario(scale float64) (TCPScenario, error) {
	script, err := fvconf.Parse(fvconf.MotivationScript)
	if err != nil {
		return TCPScenario{}, err
	}
	t, rules, err := script.Compile()
	if err != nil {
		return TCPScenario{}, err
	}
	return TCPScenario{
		DurationNs:   scaled(scale, 45),
		BinNs:        scaled(scale, 1),
		Apps:         motivationApps(scale),
		Tree:         t,
		Rules:        rules,
		DefaultClass: script.DefaultClass,
		// The wire is the 40GbE Netronome card; the 10Gbps limit of
		// the motivation example is purely the policy ceiling. Pinning
		// the wire to the policy rate would make the traffic manager
		// the bottleneck (frame vs wire-overhead accounting) and its
		// uncontrolled tail drops would erode the policy.
		NIC: nic.Config{WireRateBps: 40e9, WirePorts: 4},
	}, nil
}

// Fig11a runs FlowValve on the motivation policy (paper Fig 11(a)),
// sampling the per-class token-rate dynamics (Fig 6-style curves) at
// 100ms resolution.
func Fig11a(scale float64, opts ...ScenarioOption) (*Result, error) {
	sc, err := motivationScenario(scale)
	if err != nil {
		return nil, err
	}
	sc.SampleRatesNs = scaled(scale, 1) / 10
	applyOpts(&sc, opts)
	return RunFlowValveTCP(sc)
}

// htbMotivationTree is the same policy expressed in HTB terms: assured
// rates (the quantum basis) summing to the link, ceilings at the link.
// NC gets a small assured rate plus the top priority — the configuration
// whose borrowing behaviour the paper shows failing.
func htbMotivationTree() *tree.Tree {
	const ceil = 10e9
	return tree.NewBuilder().
		Root("1:", 10e9).
		Add(tree.ClassSpec{Name: "1:1", Parent: "1:", Prio: 0, RateBps: 1e9, CeilBps: ceil}).    // NC
		Add(tree.ClassSpec{Name: "1:2", Parent: "1:", Prio: 1, RateBps: 9e9, CeilBps: ceil}).    // S1
		Add(tree.ClassSpec{Name: "1:30", Parent: "1:2", RateBps: 3e9, CeilBps: ceil}).           // WS
		Add(tree.ClassSpec{Name: "1:21", Parent: "1:2", RateBps: 6e9, CeilBps: ceil}).           // S2
		Add(tree.ClassSpec{Name: "1:40", Parent: "1:21", Prio: 0, RateBps: 3e9, CeilBps: ceil}). // KVS
		Add(tree.ClassSpec{Name: "1:50", Parent: "1:21", Prio: 1, RateBps: 3e9, CeilBps: ceil}). // ML
		MustBuild()
}

// Fig3 runs the kernel HTB baseline on the motivation policy (paper
// Fig 3), exhibiting the three kernel inaccuracies.
func Fig3(scale float64, opts ...ScenarioOption) (*Result, error) {
	sc, err := motivationScenario(scale)
	if err != nil {
		return nil, err
	}
	sc.Tree = htbMotivationTree()
	applyOpts(&sc, opts)
	// The testbed wire is the 40GbE NIC; HTB's 10G ceiling is pure
	// software, which is exactly why it can overshoot to ≈12G.
	return RunHTBTCP(sc, htb.Config{LinkRateBps: 40e9})
}

// Fig11b runs 40Gbps fair queueing with four apps of four TCP connections
// joining at 0/10/20/30s (paper Fig 11(b)).
func Fig11b(scale float64, opts ...ScenarioOption) (*Result, error) {
	return fairQueueRun(scale, 4, opts...)
}

// FairQueueConns is Fig11b with a custom connection count per app — the
// paper's 4..256-connection robustness sweep.
func FairQueueConns(scale float64, conns int, opts ...ScenarioOption) (*Result, error) {
	return fairQueueRun(scale, conns, opts...)
}

func fairQueueRun(scale float64, conns int, opts ...ScenarioOption) (*Result, error) {
	script, err := fvconf.Parse(fvconf.FairQueueScript("40gbit", 4))
	if err != nil {
		return nil, err
	}
	t, rules, err := script.Compile()
	if err != nil {
		return nil, err
	}
	sc := TCPScenario{
		DurationNs: scaled(scale, 45),
		BinNs:      scaled(scale, 1),
		Apps: []AppSpec{
			{App: 0, Conns: conns, StartNs: 0},
			{App: 1, Conns: conns, StartNs: scaled(scale, 10)},
			{App: 2, Conns: conns, StartNs: scaled(scale, 20)},
			{App: 3, Conns: conns, StartNs: scaled(scale, 30)},
		},
		Tree:         t,
		Rules:        rules,
		DefaultClass: script.DefaultClass,
		NIC:          nic.Config{WireRateBps: 40e9, WirePorts: 4},
	}
	applyOpts(&sc, opts)
	return RunFlowValveTCP(sc)
}

// Fig11c runs 40Gbps weighted fair queueing under the Fig 12 policy:
// App2 appears at 20s (must not disturb App0), App0 stops at 30s (the
// rest share equally — borrowing is unweighted).
func Fig11c(scale float64, opts ...ScenarioOption) (*Result, error) {
	script, err := fvconf.Parse(fvconf.WeightedFQScript("40gbit"))
	if err != nil {
		return nil, err
	}
	t, rules, err := script.Compile()
	if err != nil {
		return nil, err
	}
	sc := TCPScenario{
		DurationNs: scaled(scale, 45),
		BinNs:      scaled(scale, 1),
		Apps: []AppSpec{
			{App: 0, Conns: 4, StartNs: 0, StopNs: scaled(scale, 30)},
			{App: 1, Conns: 4, StartNs: 0},
			{App: 2, Conns: 4, StartNs: scaled(scale, 20)},
			{App: 3, Conns: 4, StartNs: 0},
		},
		Tree:         t,
		Rules:        rules,
		DefaultClass: script.DefaultClass,
		NIC:          nic.Config{WireRateBps: 40e9, WirePorts: 4},
	}
	applyOpts(&sc, opts)
	return RunFlowValveTCP(sc)
}

// WindowMeans summarizes a motivation-style result: per-app mean Gbps in
// each [from,to) second window (scaled).
type WindowMeans struct {
	FromS, ToS float64
	// AppGbps is indexed by app number.
	AppGbps []float64
}

// Windows computes per-app means for the given second boundaries, e.g.
// Windows(res, scale, 4, [][2]int64{{2,15},{17,30}}).
func Windows(res *Result, scale float64, apps int, bounds [][2]int64) []WindowMeans {
	out := make([]WindowMeans, 0, len(bounds))
	for _, b := range bounds {
		wm := WindowMeans{
			FromS:   float64(scaled(scale, b[0])) / 1e9,
			ToS:     float64(scaled(scale, b[1])) / 1e9,
			AppGbps: make([]float64, apps),
		}
		for a := 0; a < apps; a++ {
			wm.AppGbps[a] = res.MeanWindowBps(a, scaled(scale, b[0]), scaled(scale, b[1])) / 1e9
		}
		out = append(out, wm)
	}
	return out
}

// FormatFaults renders a faulted run's injection and degradation summary
// (empty string when the run was fault-free).
func FormatFaults(res *Result) string {
	if res.Faults == nil {
		return ""
	}
	s := "faults injected:"
	for _, k := range faults.Kinds() {
		if n := res.Faults.Injected[k]; n > 0 {
			s += fmt.Sprintf(" %s=%d", k, n)
		}
	}
	if res.Faults.Total() == 0 {
		s += " none"
	}
	s += "\n"
	if wd := res.Watchdog; wd != nil {
		s += fmt.Sprintf("watchdog: %d recoveries (mean %.1fms), %d forced refills, %d degraded at end\n",
			wd.Recoveries(), wd.MeanRecoveryNs()/1e6, wd.ForcedRefills(), wd.DegradedNow())
	}
	return s
}

// FormatWindows renders window means as an aligned table.
func FormatWindows(title string, apps []string, wins []WindowMeans) string {
	s := title + "\n"
	s += fmt.Sprintf("%-14s", "window")
	for _, a := range apps {
		s += fmt.Sprintf("%10s", a)
	}
	s += fmt.Sprintf("%10s\n", "total")
	for _, w := range wins {
		s += fmt.Sprintf("%5.1fs-%5.1fs ", w.FromS, w.ToS)
		var total float64
		for _, g := range w.AppGbps {
			s += fmt.Sprintf("%9.2fG", g)
			total += g
		}
		s += fmt.Sprintf("%9.2fG\n", total)
	}
	return s
}
