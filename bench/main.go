// Command bench is the repository's benchmark (see README.md in this
// directory and BENCHMARK.json at the root). One run builds one
// workload's cluster through the public node.Start API, drives it open
// loop from a single generator goroutine, verifies the outputs and
// prints every metric by name with its unit; the last line of standard
// output is the machine-readable result.
//
//	go run ./bench -workload all -seed 1            # end-to-end metrics, every workload
//	go run ./bench -workload feed-tcp -trace 1      # per-layer metrics from a traced run
//	go run ./bench -check-repeat                    # two sets on this commit, compared against the bounds
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// processStart is where the first, cold set-up starts counting. Package variables are
// initialised before main runs; what the Go runtime spent before that
// (about a millisecond) cannot be read from inside the process.
var processStart = time.Now()

// defaultSeconds is the measured window when -seconds is not given; it
// equals run_seconds in BENCHMARK.json.
const defaultSeconds = 15

// outcome is the last line of standard output.
type outcome struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced run, prints the end-to-end metrics")
		repeat  = flag.Bool("check-repeat", false, "run two sets of every workload and compare each end-to-end metric's medians against its bound")
		keep    = flag.Bool("keep", false, "keep the run directory (trace.jsonl, journals) on success")
		out     = flag.String("out", defaultOut(), "parent of the per-run directories")
		descr   = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-keep] [-out dir] | -check-repeat | -describe")
		os.Exit(2)
	}
	switch {
	case *descr:
		describe(os.Stdout)
	case *repeat:
		os.Exit(checkRepeat(*seed, *seconds, *out))
	case *name == "all":
		ok := true
		for _, w := range workloads {
			o, _, err := runChild(w.name, *seed, *seconds, *trace, *keep, *out, os.Stdout)
			ok = ok && err == nil && o.Correct
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			}
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, found := workloadByName(*name)
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err := runWorkload(runConfig{
			w: w, seed: *seed, tm: defaultTiming(w, *seconds), traced: *trace == 1,
			start: processStart, outDir: *out, keep: *keep, micro: 20 * time.Millisecond,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		report(os.Stdout, res)
		if !res.correct {
			os.Exit(1)
		}
	}
}

// defaultOut keeps run directories under bench/out whether the command
// is started from the repository root or from bench/ itself.
func defaultOut() string {
	if fi, err := os.Stat("bench"); err == nil && fi.IsDir() {
		return "bench/out"
	}
	return "out"
}

// declared returns the metric list a run of this mode must print.
func declared(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report prints the run for a reader, then the result line.
func report(w io.Writer, res *result) {
	mode := "untraced: end-to-end metrics"
	if res.traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Fprintf(w, "== %s seed=%d (%s) schedule_digest=%s\n", res.workload, res.seed, mode, res.digest)
	o := outcome{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: make(map[string]measured)}
	printed := make(map[string]bool)
	for _, m := range declared(res.traced) {
		v, ok := res.values[m.name]
		if !ok {
			// Declared but not measured: a bug in the benchmark.
			fmt.Fprintf(w, "%-38s MISSING\n", m.name)
			o.Correct = false
			continue
		}
		o.Metrics[m.name] = measured{Value: v, Unit: m.unit}
		printed[m.name] = true
		fmt.Fprintf(w, "%-38s %14.4f %s\n", m.name, v, m.unit)
	}
	// Whatever else this run could measure, for the reader only.
	var extra []metricDef
	for _, m := range declared(!res.traced) {
		if _, ok := res.values[m.name]; ok && !printed[m.name] {
			extra = append(extra, m)
		}
	}
	if len(extra) > 0 {
		fmt.Fprintln(w, "-- also measured in this run (not part of its result line)")
		for _, m := range extra {
			fmt.Fprintf(w, "%-38s %14.4f %s\n", m.name, res.values[m.name], m.unit)
		}
	}
	for _, n := range res.notes {
		fmt.Fprintln(w, "#", n)
	}
	if res.invalid != "" {
		fmt.Fprintf(w, "%s: %s\n", invalidMark, res.invalid)
	}
	if res.traceFile != "" {
		fmt.Fprintln(w, "# trace kept at", res.traceFile)
	}
	line, err := json.Marshal(o)
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(w, string(line))
}

// invalidMark starts the report line of a run whose numbers measure the
// driver, not the program (see genLateLimit). The result line cannot say
// so: its keys are fixed, and correct is about the program's outputs,
// which a late generator does not make wrong.
const invalidMark = "# INVALID"

// runChild runs one workload in a fresh process — peak RSS, heap state
// and set-up time are then that workload's own — and returns its result
// line and whether the run marked itself invalid. The child's report is
// copied to echo.
func runChild(name string, seed int64, seconds float64, trace int, keep bool, out string, echo io.Writer) (o *outcome, invalid bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	args := []string{
		"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", out,
	}
	if keep {
		args = append(args, "-keep")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = io.MultiWriter(&stdout, echo)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" {
			last = l
			invalid = invalid || strings.HasPrefix(l, invalidMark)
		}
	}
	o = new(outcome)
	if err := json.Unmarshal([]byte(last), o); err != nil {
		if runErr != nil {
			return nil, false, runErr
		}
		return nil, false, fmt.Errorf("no result line: %w", err)
	}
	return o, invalid, runErr
}

// repeatRuns is how many seeds each set of -check-repeat runs per
// workload. The driver compares medians of ten; one run against one run
// differs by more than the bounds allow on its own (relay-mem's CPU per
// notification read 113 and 144 µs in two single runs of one commit).
const repeatRuns = 5

// checkRepeat runs two sets on this commit — each workload on
// repeatRuns consecutive seeds — and prints, for every (metric,
// workload) pair, both medians, their relative difference and the
// bound. A pair outside its bound cannot gate a later change; the exit
// code is non-zero so that the pair is fixed (longer window, lower rate)
// or demoted to the ungated list. A run that marked itself invalid is
// left out of the medians; a set needs a majority of valid runs.
func checkRepeat(seed int64, seconds float64, out string) int {
	var sets [2]map[string]map[string][]float64 // set → workload → metric → values
	invalid := 0
	for s := range sets {
		sets[s] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			sets[s][w.name] = make(map[string][]float64)
			valid := 0
			for i := int64(0); i < repeatRuns; i++ {
				fmt.Fprintf(os.Stderr, "check-repeat: set %d, %s, seed %d\n", s+1, w.name, seed+i)
				o, bad, err := runChild(w.name, seed+i, seconds, 0, false, out, io.Discard)
				if err != nil || !o.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s failed in set %d: %v\n", w.name, s+1, err)
					return 1
				}
				if bad {
					fmt.Fprintf(os.Stderr, "check-repeat: set %d, %s, seed %d is invalid (late generator): left out\n", s+1, w.name, seed+i)
					invalid++
					continue
				}
				valid++
				for name, m := range o.Metrics {
					sets[s][w.name][name] = append(sets[s][w.name][name], m.Value)
				}
			}
			if 2*valid <= repeatRuns {
				fmt.Fprintf(os.Stderr, "bench: %s: only %d of %d runs of set %d are valid\n", w.name, valid, repeatRuns, s+1)
				return 1
			}
		}
	}
	fmt.Printf("medians of up to %d runs; invalid runs left out: %d\n%-18s %-18s %14s %14s %9s %7s\n", repeatRuns, invalid, "metric", "workload", "set 1", "set 2", "rel diff", "bound")
	outside := 0
	for _, m := range endToEnd {
		for _, w := range workloads {
			a, b := median(sets[0][w.name][m.name]), median(sets[1][w.name][m.name])
			diff := math.Abs(b-a) / math.Abs(a)
			mark := ""
			if !(diff <= m.bound) {
				mark = "  OUTSIDE"
				outside++
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %8.1f%% %6.1f%%%s\n", m.name, w.name, a, b, 100*diff, 100*m.bound, mark)
		}
	}
	if outside > 0 {
		fmt.Printf("%d (metric, workload) pairs outside their bound\n", outside)
		return 1
	}
	return 0
}

// describe prints BENCHMARK.json from the tables in spec.go, which is
// how the file is kept equal to the program.
func describe(w io.Writer) {
	type workloadJSON struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	file := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadJSON `json:"workloads"`
		EndToEnd   []metricJSON   `json:"end_to_end"`
		PerLayer   []metricJSON   `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: defaultSeconds}
	for _, wl := range workloads {
		file.Workloads = append(file.Workloads, workloadJSON{wl.name, wl.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		file.EndToEnd = append(file.EndToEnd, metricJSON{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		file.PerLayer = append(file.PerLayer, metricJSON{m.name, m.unit, m.better, nil})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(file); err != nil {
		panic(err)
	}
}
