package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "runtime.newobject", "flowvalve/internal/sim.(*Engine).At"}, "gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memmove", "runtime.growslice", "main.(*desRun).send"}, "gc"},
		{[]string{"container/heap.down", "container/heap.Pop", "flowvalve/internal/sim.(*Engine).Step"}, "sim"},
		{[]string{"runtime.memmove", "flowvalve/internal/pktq.(*FIFO).TryPush", "flowvalve/internal/nic.(*NIC).Inject"}, "pktq"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "flowvalve/internal/tcp.(*Set).OnDeliver", "main.(*desRun).callbacks.func1"}, "tcp"},
		{[]string{"flowvalve/internal/sched/tree.(*Tree).Classes", "flowvalve/internal/core.(*Scheduler).Snapshot"}, "core"},
		{[]string{"time.Now", "flowvalve/internal/clock.(*Wall).Now", "flowvalve/internal/core.(*Scheduler).Schedule"}, "core"},
		{[]string{"flowvalve/internal/p4lite.ParseFrame", "flowvalve/internal/classifier.(*Classifier).classify"}, "classifier"},
		{[]string{"flowvalve.(*Scheduler).Schedule", "main.(*facadeWorker).run"}, "flowvalve"},
		{[]string{"flowvalve/internal/htb.(*HTB).dequeue", "flowvalve/internal/nic.(*slowPath).admit"}, "htb"},
		{[]string{"time.Now", "main.nanotime", "main.(*desRun).send"}, "bench"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for sym, want := range map[string]string{
		"flowvalve/internal/nic.(*NIC).Inject":           "flowvalve/internal/nic",
		"flowvalve/internal/sched/tree.(*Tree).Classes":  "flowvalve/internal/sched/tree",
		"flowvalve.(*Scheduler).Schedule":                "flowvalve",
		"main.run.func1":                                 "main",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "internal/runtime/maps",
		"flowvalve/internal/core.sum[go.shape.int64]":    "flowvalve/internal/core",
		"flowvalve/internal/core.(*Scheduler).Schedule1": "flowvalve/internal/core",
	} {
		if got := pkgOf(sym); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestCPUSharesSumToOne(t *testing.T) {
	samples := []profSample{
		{frames: []string{"runtime.mallocgc"}, weight: 30},
		{frames: []string{"container/heap.Pop", "flowvalve/internal/sim.(*Engine).Step"}, weight: 50},
		{frames: []string{"runtime.futex"}, weight: 15},
		{frames: []string{"main.nanotime"}, weight: 5},
	}
	shares, err := cpuShares(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != len(layers) {
		t.Fatalf("%d shares for %d layers", len(shares), len(layers))
	}
	want := map[string]float64{"gc": 0.3, "sim": 0.5, "runtime": 0.15, "bench": 0.05}
	var sum float64
	for l, v := range shares {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := cpuShares(nil); err == nil {
		t.Error("empty profile accepted")
	}
}

// TestAttributionTargetsAreLayers pins that attribute only returns
// names in layers, so the shares cpuShares reports cover every sample.
func TestAttributionTargetsAreLayers(t *testing.T) {
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	for pkg, l := range modulePkgLayer {
		if !known[l] {
			t.Errorf("package %s maps to %q, which is not in layers", pkg, l)
		}
	}
	for _, l := range []string{"gc", "runtime"} {
		if !known[l] {
			t.Errorf("attribute's fallback %q is not in layers", l)
		}
	}
}

// TestParseProfile decodes a real CPU profile of this process.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Skip("no CPU samples in 300ms (loaded host)")
	}
	var inTest bool
	for _, s := range samples {
		if s.weight <= 0 || len(s.frames) == 0 {
			t.Fatalf("sample %+v has no weight or frames", s)
		}
		for _, f := range s.frames {
			inTest = inTest || strings.HasSuffix(f, "TestParseProfile")
		}
	}
	if !inTest {
		t.Error("no sample names the test function")
	}
	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("garbage profile accepted")
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	spans := []span{
		{Kind: spanStep, Parent: -1, N: 1, Start: 0, End: 100},
		{Kind: spanEnqueue, Parent: 0, N: 1, Start: 10, End: 40},
		{Kind: spanSchedule, Parent: 1, N: 4, Start: 20, End: 30},
		{Kind: spanDeliver, Parent: 0, N: 1, Start: 50, End: 70},
		{Kind: spanStep, Parent: -1, N: 1, Start: 200, End: 260},
	}
	st, err := summarize(spans)
	if err != nil {
		t.Fatal(err)
	}
	step := st[spanStep]
	if step.Count != 2 || step.TotalNs != 160 || step.SelfNs != 160-30-20 || step.MeanNs != 80 {
		t.Errorf("step stats %+v", step)
	}
	if e := st[spanEnqueue]; e.SelfNs != 20 || e.TotalNs != 30 {
		t.Errorf("enqueue stats %+v", e)
	}
	if s := st[spanSchedule]; s.Calls != 4 || s.PerOpNs != 2.5 || s.SelfNs != 10 {
		t.Errorf("schedule stats %+v", s)
	}

	outside := append([]span(nil), spans...)
	outside[2].End = 45 // ends after its parent
	if _, err := summarize(outside); err == nil {
		t.Error("child outside its parent accepted")
	}
	overlap := append([]span(nil), spans...)
	overlap[3].Start = 35 // starts before its previous sibling ends
	if _, err := summarize(overlap); err == nil {
		t.Error("overlapping siblings accepted")
	}
	backwards := append([]span(nil), spans...)
	backwards[4].End = 150
	if _, err := summarize(backwards); err == nil {
		t.Error("span ending before it starts accepted")
	}
}

func TestTracerRecordsOnlyRootedTrees(t *testing.T) {
	tr, err := newTracer(16)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.free()
	tr.begin(spanEnqueue) // outside a recorded tree: ignored
	tr.end(1)
	if !tr.root(spanStep) {
		t.Fatal("root refused with budget left")
	}
	tr.begin(spanEnqueue)
	tr.begin(spanSchedule)
	tr.end(8)
	tr.end(1)
	tr.end(1)
	tr.begin(spanDeliver) // tree closed: ignored
	tr.end(1)
	if len(tr.spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(tr.spans))
	}
	if tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != 1 || tr.spans[2].N != 8 {
		t.Errorf("spans %+v", tr.spans)
	}
	if _, err := summarize(tr.spans); err != nil {
		t.Error(err)
	}
	var nilTracer *tracer
	nilTracer.begin(spanStep)
	nilTracer.end(1)
	if nilTracer.root(spanStep) {
		t.Error("nil tracer opened a tree")
	}
}

func TestValidateDefs(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := validateDefs(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range [][]metricDef{
		{{"has space", "s"}},
		{{"", "s"}},
		{{"bang!", "s"}},
		{{".leading", "s"}},
		{{"ok", ""}},
		{{"ok", "bad unit"}},
		{{"twice", "s"}, {"twice", "ms"}},
	} {
		if err := validateDefs(bad); err == nil {
			t.Errorf("catalogue %v accepted", bad)
		}
	}
	for _, l := range layers {
		if err := validateDefs([]metricDef{{l + ".cpu_share", "ratio"}}); err != nil {
			t.Error(err)
		}
	}
}

func TestBuildResult(t *testing.T) {
	defs := []metricDef{{"a", "s"}, {"b.c", "count"}}
	res, err := buildResult(defs, map[string]float64{"a": 1.5, "b.c": 2}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal([]byte(res.line()), &back); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := back[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(back) != 4 {
		t.Errorf("result line has keys %v", back)
	}
	for name, vals := range map[string]map[string]float64{
		"missing": {"a": 1},
		"extra":   {"a": 1, "b.c": 2, "d": 3},
		"nan":     {"a": math.NaN(), "b.c": 2},
		"inf":     {"a": 1, "b.c": math.Inf(1)},
	} {
		if _, err := buildResult(defs, vals, 1, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := buildResult(defs, map[string]float64{"a": 1, "b.c": 2}, 0, 0); err == nil {
		t.Error("zero attempted accepted")
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); math.Abs(got-4.96) > 1e-12 {
		t.Errorf("p99 %v", got)
	}
}

func TestWindowRates(t *testing.T) {
	w0 := &facadeWorker{ends: []int64{5, 15, 25, 31}}
	w1 := &facadeWorker{ends: []int64{9, 19}}
	rates := windowRates([]*facadeWorker{w0, w1}, 0, 10)
	if len(rates) != 3 {
		t.Fatalf("%d windows, want the 3 full ones", len(rates))
	}
	perBlock := facadeBlockSize / 10e-9
	for i, want := range []float64{2 * perBlock, 2 * perBlock, perBlock} {
		if math.Abs(rates[i]-want) > 1e-6*want {
			t.Errorf("window %d rate %v, want %v", i, rates[i], want)
		}
	}
}

func TestModelErrors(t *testing.T) {
	if got := fairShareErr([]uint64{5, 5, 5, 5}); got != 0 {
		t.Errorf("equal shares: %v", got)
	}
	if got := fairShareErr([]uint64{1, 0, 0, 0}); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("one app takes all: %v", got)
	}
}

func TestFNVMatchesStdlib(t *testing.T) {
	// The offload lab's digest is hash/fnv's FNV-1a over five
	// little-endian words; the cross-check relies on equal layouts.
	words := []uint64{1, 2<<40 | 3, 1 << 63, 0, 12345}
	var buf [40]byte
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	h := fnv.New64a()
	h.Write(buf[:])
	if got := fnvWords(fnvOffset, words[0], words[1], words[2], words[3], words[4]); got != h.Sum64() {
		t.Errorf("fnvWords = %x, hash/fnv = %x", got, h.Sum64())
	}
}

// TestVariantsAreDeterministic runs one non-figure input variant of each
// DES workload twice and compares every simulated count.
func TestVariantsAreDeterministic(t *testing.T) {
	for _, w := range desWorkloads {
		var got [2]desCounts
		for i := range got {
			r := &desRun{heapSample: newHeapSample()}
			if err := w.build(r, w.policy, 7, w.checkLength); err != nil {
				t.Fatal(err)
			}
			r.loop()
			if err := r.verify(); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			got[i] = r.counts()
		}
		if got[0] != got[1] {
			t.Errorf("%s: %+v then %+v", w.name, got[0], got[1])
		}
		if got[0].Injected == 0 || got[0].Events == 0 {
			t.Errorf("%s simulated nothing: %+v", w.name, got[0])
		}
	}
}

// TestCrossCheck checks that each DES workload's figure configuration
// reproduces the harness it mirrors, and that the comparison notices a
// different input.
func TestCrossCheck(t *testing.T) {
	for _, w := range desWorkloads {
		if err := crossCheck(w); err != nil {
			t.Error(err)
		}
	}
	w := desWorkloads[1] // tcp-motivation: start phases change its counts
	r := &desRun{heapSample: newHeapSample()}
	if err := w.build(r, w.policy, 7, w.checkLength); err != nil {
		t.Fatal(err)
	}
	r.loop()
	if err := w.matchFigure(r, w.checkLength); err == nil {
		t.Errorf("%s variant 7 matched the figure configuration", w.name)
	}
}

// TestSmoke runs every workload briefly in both modes through the
// command's entry point.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	names := []string{"facade-wallclock"}
	for _, w := range desWorkloads {
		names = append(names, w.name)
	}
	for _, name := range names {
		for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", name, "--seed", "2", "--seconds", "0.5", "--trace", trace,
				"--trace-dir", t.TempDir()}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", name, trace, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %+v", name, trace, res)
			}
			for _, d := range defs {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or mis-united", name, trace, d.Name)
				}
			}
			if trace == "1" {
				var sum float64
				for _, l := range layers {
					sum += res.Metrics[l+".cpu_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: cpu shares sum to %v", name, sum)
				}
			}
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sat64", "--trace", "2"},
		{"--workload", "sat64", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
