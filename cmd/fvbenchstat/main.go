// Command fvbenchstat turns `go test -bench` text output into a
// committed JSON baseline and gates later runs against it: the CI bench
// job fails when a guarded benchmark regresses past the threshold.
//
// The JSON keeps the raw benchmark lines verbatim, so a baseline file
// is also a benchstat input: `fvbenchstat -print -baseline BENCH.json >
// old.txt` recovers text that benchstat consumes directly alongside a
// fresh run.
//
// Usage:
//
//	go test -run '^$' -bench ScheduleBatch32 -benchmem -count=5 ./... |
//	    fvbenchstat -emit BENCH_pr10.json
//
//	go test -run '^$' -bench ScheduleBatch32 -benchmem -count=5 ./... |
//	    fvbenchstat -baseline BENCH_pr10.json -match ScheduleBatch32 -threshold 0.12 -max-allocs 0
//
//	fvbenchstat -print -baseline BENCH_pr10.json   # re-emit benchstat text
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed benchmark snapshot.
type Baseline struct {
	// Note documents provenance (who emitted it, from what command).
	Note string `json:"note,omitempty"`
	// Lines holds the raw `go test -bench` lines, benchstat-consumable.
	Lines []string `json:"lines"`
	// Benchmarks summarizes each benchmark name (procs suffix stripped)
	// by its median across repetitions.
	Benchmarks []Summary `json:"benchmarks"`
}

// Summary is one benchmark's aggregated result. The gate compares
// MinNsPerOp — best-of-N is far less sensitive to scheduler noise than
// the median, which matters on shared CI runners.
type Summary struct {
	Name        string  `json:"name"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	MinNsPerOp  float64 `json:"min_ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

func main() {
	emit := flag.String("emit", "", "write a JSON baseline parsed from stdin to this file (- for stdout)")
	baseline := flag.String("baseline", "", "committed JSON baseline to gate against or print")
	match := flag.String("match", "ScheduleBatch32", "substring selecting the benchmarks the gate guards ('|' separates OR alternatives)")
	threshold := flag.Float64("threshold", 0.15, "maximum allowed ns/op regression fraction")
	maxAllocs := flag.Float64("max-allocs", -1, "fail any guarded benchmark whose median allocs/op exceeds this (negative disables)")
	printText := flag.Bool("print", false, "re-emit the baseline's raw benchmark lines and exit")
	flag.Parse()
	code, err := run(os.Stdin, os.Stdout, *emit, *baseline, *match, *threshold, *maxAllocs, *printText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fvbenchstat:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(in io.Reader, out io.Writer, emit, baselinePath, match string, threshold, maxAllocs float64, printText bool) (int, error) {
	if printText {
		base, err := loadBaseline(baselinePath)
		if err != nil {
			return 0, err
		}
		for _, line := range base.Lines {
			fmt.Fprintln(out, line)
		}
		return 0, nil
	}
	if emit != "" {
		base, err := parseBench(in)
		if err != nil {
			return 0, err
		}
		if len(base.Benchmarks) == 0 {
			return 0, fmt.Errorf("no benchmark lines on stdin")
		}
		base.Note = "committed bench baseline; regenerate with `make bench-json` on the reference machine"
		w := out
		if emit != "-" {
			f, err := os.Create(emit)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return 0, enc.Encode(base)
	}
	if baselinePath == "" {
		return 0, fmt.Errorf("need -emit, -print, or -baseline")
	}
	base, err := loadBaseline(baselinePath)
	if err != nil {
		return 0, err
	}
	cur, err := parseBench(in)
	if err != nil {
		return 0, err
	}
	return gate(out, base, cur, match, threshold, maxAllocs)
}

func loadBaseline(path string) (*Baseline, error) {
	if path == "" {
		return nil, fmt.Errorf("no -baseline given")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &base, nil
}

// gate compares the guarded benchmarks of cur against base and reports
// each verdict; any regression past the threshold (or a guarded
// baseline benchmark missing from the run) fails the gate. When
// maxAllocs is non-negative, a guarded benchmark allocating more than
// that per op also fails — the hot-path zero-allocation contract.
func gate(out io.Writer, base, cur *Baseline, match string, threshold, maxAllocs float64) (int, error) {
	current := map[string]Summary{}
	for _, s := range cur.Benchmarks {
		current[s.Name] = s
	}
	guarded, failures := 0, 0
	for _, want := range base.Benchmarks {
		if !matchAny(want.Name, match) {
			continue
		}
		guarded++
		got, ok := current[want.Name]
		if !ok {
			failures++
			fmt.Fprintf(out, "FAIL %s: in baseline but not in this run\n", want.Name)
			continue
		}
		delta := (got.MinNsPerOp - want.MinNsPerOp) / want.MinNsPerOp
		verdict := "ok  "
		if delta > threshold {
			verdict = "FAIL"
			failures++
		}
		fmt.Fprintf(out, "%s %s: best %.1f ns/op vs baseline %.1f ns/op (%+.1f%%, limit +%.0f%%)\n",
			verdict, want.Name, got.MinNsPerOp, want.MinNsPerOp, delta*100, threshold*100)
		if maxAllocs >= 0 && got.AllocsPerOp > maxAllocs {
			failures++
			fmt.Fprintf(out, "FAIL %s: %.1f allocs/op exceeds the %.0f allocs/op ceiling\n",
				want.Name, got.AllocsPerOp, maxAllocs)
		}
	}
	if guarded == 0 {
		fmt.Fprintf(out, "FAIL no baseline benchmark matches %q\n", match)
		return 1, nil
	}
	if failures > 0 {
		fmt.Fprintf(out, "fvbenchstat: %d of %d guarded benchmark(s) failed the %.0f%% gate\n",
			failures, guarded, threshold*100)
		return 1, nil
	}
	fmt.Fprintf(out, "fvbenchstat: %d guarded benchmark(s) within the %.0f%% gate\n", guarded, threshold*100)
	return 0, nil
}

// matchAny reports whether name contains any of the '|'-separated
// substring alternatives in match (empty alternatives are skipped, so a
// stray trailing '|' cannot guard everything by accident).
func matchAny(name, match string) bool {
	for _, alt := range strings.Split(match, "|") {
		if alt != "" && strings.Contains(name, alt) {
			return true
		}
	}
	return false
}

// parseBench reads `go test -bench` text and aggregates repetitions of
// each benchmark into a median summary.
func parseBench(in io.Reader) (*Baseline, error) {
	base := &Baseline{}
	samples := map[string][][3]float64{} // name -> per-run {ns/op, B/op, allocs/op}
	var order []string
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := stripProcs(fields[0])
		var vals [3]float64
		seen := false
		// Value/unit pairs follow the iteration count.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value in %q: %w", line, err)
			}
			switch fields[i+1] {
			case "ns/op":
				vals[0], seen = v, true
			case "B/op":
				vals[1] = v
			case "allocs/op":
				vals[2] = v
			}
		}
		if !seen {
			continue
		}
		if _, ok := samples[name]; !ok {
			order = append(order, name)
		}
		samples[name] = append(samples[name], vals)
		base.Lines = append(base.Lines, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range order {
		runs := samples[name]
		base.Benchmarks = append(base.Benchmarks, Summary{
			Name:        name,
			Runs:        len(runs),
			NsPerOp:     median(runs, 0),
			MinNsPerOp:  minOf(runs, 0),
			BytesPerOp:  median(runs, 1),
			AllocsPerOp: median(runs, 2),
		})
	}
	return base, nil
}

// stripProcs removes the trailing -GOMAXPROCS suffix from a benchmark
// name so repetitions and machines with different core counts compare.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func minOf(runs [][3]float64, idx int) float64 {
	if len(runs) == 0 {
		return 0
	}
	best := runs[0][idx]
	for _, r := range runs[1:] {
		if r[idx] < best {
			best = r[idx]
		}
	}
	return best
}

func median(runs [][3]float64, idx int) float64 {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r[idx]
	}
	sort.Float64s(vals)
	n := len(vals)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}
