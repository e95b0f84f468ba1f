// Command hnbench is the honeynet's layered benchmark. It drives the
// program only through its public entry points — honeynet.Serve for an
// edge, fleet.NewServer for a collector built the way cmd/hncollect
// builds it, honeynet.Query and honeynet.Open + Pipeline.RunAll for the
// analyst — over sessions generated by simulate.Run from a seed.
//
// Usage (from the repository root; run.sh builds and execs this):
//
//	hnbench --workload attack|backfill|analyst --seed N --seconds S --trace 0|1
//	hnbench --workload W --seed N --seconds S --repeat 10
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics
// of a separate traced run, and the span log is written under
// .bench_build/trace/. --repeat N runs the workload N times in child
// processes, one seed after another from --seed, and prints each
// metric's median and quartiles. See README.md for what each workload
// and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's outcome. End-to-end metrics go to the result
// line with --trace 0, per-layer metrics with --trace 1; detail metrics
// (the workload's own names, tails that are too noisy to bound) are
// printed on standard error only.
type report struct {
	attempted, failed int64
	violations        []string
	endToEnd          map[string]metric
	layers            map[string]metric
	detail            map[string]metric
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		layers:   map[string]metric{},
		detail:   map[string]metric{},
	}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.violate(err.Error())
	}
}

// violate records a failed check without counting an operation.
func (r *report) violate(msg string) {
	if len(r.violations) < 20 {
		r.violations = append(r.violations, msg)
	}
}

func (r *report) e2e(name, unit string, v float64)   { r.endToEnd[name] = metric{v, unit} }
func (r *report) layer(name, unit string, v float64) { r.layers[name] = metric{v, unit} }
func (r *report) info(name, unit string, v float64)  { r.detail[name] = metric{v, unit} }

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the scratch directory for stores; removed at exit.
	work string
	// traceDir receives the span log of a traced run.
	traceDir string
	// The sizes below are constants of the benchmark (runtime.NumCPU(),
	// defaultScale, analystSetups, attackRound); tests shrink them.
	//
	// clients is the attack workload's closed-loop client count.
	clients int
	// scale divides paper-scale volume for the generated sessions.
	scale float64
	// setups is how many times analyst set-up is repeated for setup_s.
	setups int
	// round is how many sessions one attack round replays.
	round int
}

// watchdogAfter bounds one run.
const watchdogAfter = 170 * time.Second

var workloads = map[string]func(*options, *report) error{
	"attack":   runAttack,
	"backfill": runBackfill,
	"analyst":  runAnalyst,
}

func main() {
	o := options{
		clients: runtime.NumCPU(),
		scale:   defaultScale,
		setups:  analystSetups,
		round:   attackRound,
	}
	var trace, repeat int
	flag.StringVar(&o.workload, "workload", "", "workload: attack, backfill or analyst")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	flag.IntVar(&repeat, "repeat", 0, "run the workload this many times (seeds --seed, --seed+1, ...) and print medians and quartiles")
	specPath := flag.String("write-spec", "", "write BENCHMARK.json to this path and exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	o.trace = trace == 1
	if *specPath != "" {
		if err := writeSpec(*specPath); err != nil {
			fmt.Fprintf(os.Stderr, "hnbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "hnbench: unknown workload %q (want attack, backfill or analyst)\n", o.workload)
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "hnbench: --seconds must be positive")
		os.Exit(2)
	}
	// Scratch data goes under .bench_build in the working directory, the
	// checkout root run.sh starts from.
	build := ".bench_build"
	if repeat > 0 {
		if err := runRepeat(os.Args[1:], o.seed, repeat); err != nil {
			fmt.Fprintf(os.Stderr, "hnbench: repeat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "hnbench: %v\n", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(build, "work-"+o.workload+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hnbench: %v\n", err)
		os.Exit(1)
	}
	o.work = work
	o.traceDir = filepath.Join(build, "trace")
	// A run must end well within three minutes: past that, print the
	// goroutines on standard error and fail without a result.
	watchdog := time.AfterFunc(watchdogAfter, func() {
		buf := make([]byte, 1<<20)
		os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		fmt.Fprintf(os.Stderr, "hnbench: %s: still running after %v\n", o.workload, watchdogAfter)
		os.RemoveAll(work)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hnbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	rep := newReport()
	runErr := workloads[o.workload](&o, rep)
	pprof.StopCPUProfile()
	os.RemoveAll(work)
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "hnbench: %s: %v\n", o.workload, runErr)
		os.Exit(1)
	}
	emit(&o, rep)
}

// emit prints the detail table on standard error and the result line
// on standard output. The result carries exactly the declared metrics
// of the run's kind.
func emit(o *options, rep *report) {
	e2e, missing := shape(rep.endToEnd, benchSpec.EndToEnd, false)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "hnbench: %s measured no %v\n", o.workload, missing)
		os.Exit(1)
	}
	res := result{
		Correct:   len(rep.violations) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   e2e,
	}
	if o.trace {
		res.Metrics, _ = shape(rep.layers, benchSpec.PerLayer, true)
	}
	for _, v := range rep.violations {
		fmt.Fprintf(os.Stderr, "hnbench: check failed: %s\n", v)
	}
	printTable(os.Stderr, "detail", rep.detail)
	printTable(os.Stderr, "end-to-end", e2e)
	if o.trace {
		printTable(os.Stderr, "per-layer", res.Metrics)
	}
	detail := map[string]metric{}
	for k, v := range rep.detail {
		detail[k] = v
	}
	for k, v := range e2e {
		detail["e2e."+k] = v
	}
	b, _ := json.Marshal(clean(detail))
	fmt.Fprintf(os.Stderr, "%s%s\n", detailPrefix, b)
	b, _ = json.Marshal(res)
	fmt.Println(string(b))
}

// clean drops values JSON cannot carry (NaN, Inf).
func clean(m map[string]metric) map[string]metric {
	out := map[string]metric{}
	for k, v := range m {
		if !math.IsNaN(v.Value) && !math.IsInf(v.Value, 0) {
			out[k] = v
		}
	}
	return out
}

func printTable(w *os.File, title string, m map[string]metric) {
	if len(m) == 0 {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// --- statistics ---

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks); xs is sorted in place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs; NaN when empty.
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// A run repeats its unit of work (a round of sessions, a backlog, a
// statement round, a figure pass) and reports its best tenth: the first
// decile of the repeats' times, the ninth decile of their rates. On a
// shared host, neighbours take CPU away for seconds at a time and only
// ever make a repeat slower, so the best tenth tracks what the program
// can do while the median tracks the neighbours.
func steadyTime(xs []float64) float64 { return quantile(xs, 0.1) }

func steadyRate(xs []float64) float64 { return quantile(xs, 0.9) }

// durMs converts durations to float milliseconds.
func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
