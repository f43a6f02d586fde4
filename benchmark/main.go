// Command benchmark is the repository's end-to-end benchmark: five governed
// query workloads driven by real Connect clients over loopback HTTP into the
// deployment cmd/lakeguard-server wires up, with outside-in per-layer
// attribution from benchmark-owned spans. See README.md.
//
//	bash benchmark/run.sh                      # all five workloads
//	bash benchmark/run.sh -workload udf_sandbox -seed 7 -seconds 20 -trace 1
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
)

// envelope is what -out writes: where and how the numbers were measured,
// and one report per run.
type envelope struct {
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	Parallelism int       `json:"parallelism"`
	Clients     int       `json:"clients"`
	GoVersion   string    `json:"go_version"`
	Commit      string    `json:"commit"`
	Seed        uint64    `json:"seed"`
	Seconds     float64   `json:"seconds"`
	Quick       bool      `json:"quick"`
	Reports     []*report `json:"reports"`
}

func newEnvelope(opt options) *envelope {
	env := &envelope{
		NProc: runtime.NumCPU(), GOMAXPROCS: pinnedGOMAXPROCS, Parallelism: pinnedParallelism,
		Clients: numClients, GoVersion: runtime.Version(), Commit: "unknown",
		Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func main() {
	var opt options
	var trace int
	var out string
	var compare bool
	var runs int
	flag.StringVar(&opt.workload, "workload", "", "run this workload only, in this process (default: all five, one child process each)")
	flag.Uint64Var(&opt.seed, "seed", 1, "seed of the generated tables, keys and literals")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&opt.traceOut, "trace-out", "", "write the spans of a traced run to this file as JSON lines")
	flag.StringVar(&out, "out", "", "write every metric of every run to this JSON file")
	flag.BoolVar(&opt.quick, "quick", false, "tiny tables and one set-up: a smoke run, not for reporting")
	flag.IntVar(&runs, "runs", 1, "with all workloads: run each this many times, on seeds seed, seed+1, ...")
	flag.BoolVar(&compare, "compare", false, "compare two -out files given as arguments and exit non-zero on a breach")
	flag.Parse()
	opt.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	env := newEnvelope(opt)
	if opt.workload != "" {
		rep, err := runWorkload(opt)
		if err != nil {
			fatal(err)
		}
		env.Reports = []*report{rep}
		printReport(rep)
		if err := writeEnvelope(out, env); err != nil {
			fatal(err)
		}
		printResultLine(rep)
		return
	}
	// All workloads: a fresh child process each, so no workload inherits
	// another's heap, caches or scheduler state.
	failed := false
	for _, wl := range workloads {
		traces := []int{0}
		if opt.trace {
			traces = append(traces, 1)
		}
		for run := 0; run < runs; run++ {
			for _, t := range traces {
				o := opt
				o.seed += uint64(run)
				rep, err := runChild(wl.name, o, t)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", wl.name, err))
				}
				env.Reports = append(env.Reports, rep)
				printReport(rep)
				failed = failed || !rep.Correct
			}
		}
	}
	if err := writeEnvelope(out, env); err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

// scratchDir holds what a run leaves behind while it runs: child reports and
// the persistent store of ingest_churn. It is inside the checkout and
// ignored by git.
const scratchDir = ".bench_build/tmp"

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runChild re-executes this binary for one workload and reads its report
// back from a file in the scratch directory.
func runChild(workload string, opt options, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(scratchDir, "report-*.json")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	f.Close()
	defer os.Remove(path)
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
		"-trace", fmt.Sprint(trace), "-out", path,
	}
	if opt.quick {
		args = append(args, "-quick")
	}
	if opt.traceOut != "" && trace == 1 {
		args = append(args, "-trace-out", opt.traceOut+"."+workload)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	// The child's exit code says whether its answers were right; the report
	// says the same in more detail, so only a missing report is an error.
	runErr := cmd.Run()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil || len(env.Reports) != 1 {
		if runErr == nil {
			runErr = errors.New("exit 0")
		}
		return nil, fmt.Errorf("child produced no report: %w", runErr)
	}
	return env.Reports[0], nil
}

func writeEnvelope(path string, env *envelope) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport prints every metric of a run as
// "workload metric value unit samples".
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%s %s %.6g %s %d\n", rep.Workload, name, m.Value, m.Unit, m.Samples)
	}
	if rep.Shares != nil {
		layers := make([]string, 0, len(rep.Shares))
		for l := range rep.Shares {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Printf("%s share.%s %.2f %% 0\n", rep.Workload, l, rep.Shares[l])
		}
	}
	if rep.FirstErr != "" {
		fmt.Printf("%s first_error %q\n", rep.Workload, rep.FirstErr)
	}
}

// printResultLine prints the one-line result the benchmark driver reads:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one. error_share is left to attempted and failed.
func printResultLine(rep *report) {
	defs := endToEnd
	if rep.Trace {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{rep.Metrics[d.name].Value, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}
