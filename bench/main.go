// Command bench is the repository's end-to-end benchmark: five workloads
// over the NTTP stack, from the Fig 1 SoC to the HTTP service, each run in
// child processes of its own. With --trace 1 it runs a workload once with
// spans and a counting probe attached, runs one micro-benchmark per layer,
// and prints where the workload's wall time went. README.md describes the
// workloads and metrics.
//
//	bash bench/run.sh --workload fig1-soc --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1 --out A.jsonl               # every workload
//	bash bench/run.sh --compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strconv"
	"syscall"
	"time"
)

const (
	// setupRuns child processes set the workload up; setup_s is the
	// median, and the last of them measures.
	setupRuns = 3
	// runLimit bounds one workload run, children included.
	runLimit = 170 * time.Second
)

// metricDef names a metric and its unit.
type metricDef struct {
	name, unit string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of an --out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload inputs are made from")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file (default .bench_build/trace/<workload>-seed<n>.json)")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	compare := fs.Bool("compare", false, "compare two --out files: --compare A.jsonl B.jsonl")
	short := fs.Bool("short", false, "shrink every workload: a quick check of the harness, not comparable numbers")
	child := fs.String("child", "", "internal: run as a child process (setup, measure or trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two record files")
			return 2
		}
		return compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v or all)\n", *workload, workloadNames)
			return 2
		}
		names = []string{*workload}
	}
	dur := time.Duration(*seconds) * time.Second
	sc := fullScale
	if *short {
		sc = shortScale
	}
	if *child != "" {
		return childMain(*child, names[0], *seed, sc, dur, *traceOut, stdout, stderr)
	}

	var last []byte
	for _, name := range names {
		res, err := runWorkload(name, *seed, *seconds, *trace == 1, *short, *traceOut, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printMetrics(stderr, name, res)
		if *out != "" {
			if err := appendRecord(*out, record{name, *seed, *trace == 1, res}); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		if last, err = json.Marshal(res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		if len(names) > 1 {
			fmt.Fprintf(stdout, "%s %s\n", name, last)
		}
	}
	if len(names) == 1 {
		fmt.Fprintf(stdout, "%s\n", last)
	}
	return 0
}

// runWorkload runs one workload in child processes and assembles its
// result. Untraced, setupRuns children each set the workload up from
// process start and the last of them then measures; traced, one child
// does everything.
func runWorkload(name string, seed int64, seconds int, trace, short bool, traceOut string, stderr io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds)}
	if short {
		args = append(args, "--short")
	}
	if trace {
		if traceOut != "" {
			args = append(args, "--trace-out", traceOut)
		}
		c, err := spawn(ctx, "trace", args, stderr)
		return c.res, err
	}
	var setups []float64
	var res result
	correct := true
	for i := 0; i < setupRuns; i++ {
		mode := "setup"
		if i == setupRuns-1 {
			mode = "measure"
		}
		c, err := spawn(ctx, mode, args, stderr)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, c.setup.Seconds())
		correct = correct && c.res.Correct
		if mode == "measure" {
			res = c.res
			res.Metrics["peak_rss_mb"] = metric{c.rssMB, "MB"}
		}
	}
	res.Correct = correct
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}

// childRun is what the parent learns from one child process.
type childRun struct {
	res   result
	setup time.Duration // process start to the "ready" line
	rssMB float64       // the child's peak resident set
}

// spawn runs this binary as a child, times it from process start to its
// "ready" line, and reads its result from the last line of its output.
func spawn(ctx context.Context, mode string, args []string, stderr io.Writer) (childRun, error) {
	var c childRun
	exe, err := os.Executable()
	if err != nil {
		return c, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, append([]string{"--child", mode}, args...)...)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return c, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return c, fmt.Errorf("starting %s child: %w", mode, err)
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var last []byte
	for sc.Scan() {
		if sc.Text() == "ready" && c.setup == 0 {
			c.setup = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return c, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return c, fmt.Errorf("reading %s child output: %w", mode, scanErr)
	}
	if c.setup == 0 {
		return c, errors.New(mode + " child never became ready")
	}
	if err := json.Unmarshal(last, &c.res); err != nil {
		return c, fmt.Errorf("%s child result %q: %w", mode, last, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return c, nil
}

func appendRecord(path string, r record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening record file: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

func printMetrics(w io.Writer, name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// median of a non-empty sample.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
