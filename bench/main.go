// Command bench is the empart benchmark: five named workloads, each driven
// by one closed-loop client through the public empart facade, with
// end-to-end metrics from an untraced pass and per-layer attribution from a
// separate traced pass. See README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// report is the result line, the last line of standard output.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run one workload; default: all five, each with both passes")
	seed := fs.Uint64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "seconds each pass keeps issuing calls")
	trace := fs.Int("trace", 0, "with -workload: 0 runs the untraced pass, 1 the traced pass")
	dir := fs.String("dir", ".bench_build", "directory for backing files and traces")
	quick := fs.Bool("quick", false, "small inputs, for smoke tests")
	out := fs.String("out", "", "append this run's results to this result file")
	cmp := fs.Bool("compare", false, "compare two result files: -compare BASE NEW")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		return runCompare(*specPath, fs.Args(), stdout, stderr)
	}
	list := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		list = []*workload{w}
	}
	if *trace != 0 && *trace != 1 || !(*seconds > 0) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: want -trace 0 or 1, -seconds > 0 and no arguments")
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	opt := options{seed: *seed, seconds: *seconds, dir: *dir, quick: *quick}
	host := probeHost(*dir)
	hj, _ := json.Marshal(host)
	fmt.Fprintf(stderr, "bench: host %s\n", hj)

	rec := runRecord{Seed: opt.seed, Seconds: opt.seconds, Quick: opt.quick, Workloads: map[string]workloadRecord{}}
	for _, w := range list {
		var passes []func(*workload, options) (*passResult, error)
		if *name == "" || *trace == 0 {
			passes = append(passes, untraced)
		}
		if *name == "" || *trace == 1 {
			passes = append(passes, tracedPass)
		}
		wr, err := runPasses(w, opt, passes, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec.Workloads[w.name] = wr
	}
	if *out != "" {
		if err := appendRun(*out, host, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	rep := summarize(rec, *name != "", stdout)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// runPasses runs the passes of one workload under its GOMAXPROCS and merges
// their results.
func runPasses(w *workload, opt options, passes []func(*workload, options) (*passResult, error), stderr io.Writer) (workloadRecord, error) {
	wr := workloadRecord{Metrics: metricSet{}, GOMAXPROCS: w.procs}
	if wr.GOMAXPROCS == 0 {
		wr.GOMAXPROCS = runtime.GOMAXPROCS(0)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wr.GOMAXPROCS))
	for _, pass := range passes {
		res, err := pass(w, opt)
		if err != nil {
			return wr, err
		}
		if res.firstErr != nil {
			fmt.Fprintf(stderr, "bench: %s: %d of %d calls failed; first: %v\n", w.name, res.failed, res.attempted, res.firstErr)
		}
		if res.backend.Degraded {
			fmt.Fprintf(stderr, "bench: %s: backend degraded: asked for %+v, armed %+v\n", w.name, w.cfg.Pipeline, res.backend)
		}
		wr.Attempted += res.attempted
		wr.Failed += res.failed
		wr.Backend = res.backend
		for k, v := range res.metrics {
			wr.Metrics[k] = v
		}
	}
	wr.Correct = wr.Failed == 0
	return wr, nil
}

// summarize prints one "workload metric value unit" row per metric and
// builds the result line. With several workloads the line's metric names
// are prefixed "workload/".
func summarize(rec runRecord, single bool, w io.Writer) report {
	rep := report{Correct: true, Metrics: metricSet{}}
	for _, wl := range workloads {
		wr, ok := rec.Workloads[wl.name]
		if !ok {
			continue
		}
		rep.Correct = rep.Correct && wr.Correct
		rep.Attempted += wr.Attempted
		rep.Failed += wr.Failed
		names := make([]string, 0, len(wr.Metrics))
		for k := range wr.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := wr.Metrics[k]
			fmt.Fprintf(w, "%-20s %-30s %14.6g %s\n", wl.name, k, m.Value, m.Unit)
			if single {
				rep.Metrics[k] = m
			} else {
				rep.Metrics[wl.name+"/"+k] = m
			}
		}
	}
	return rep
}

func runCompare(specPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two result files: BASE NEW")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var docs [2]*resultDoc
	for i, f := range files {
		if docs[i], err = loadDoc(f); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	regressed, err := compare(spec, docs[0], docs[1], stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench: refusing to compare:", err)
		return 2
	}
	if regressed {
		fmt.Fprintln(stderr, "bench: regression")
		return 1
	}
	return 0
}
