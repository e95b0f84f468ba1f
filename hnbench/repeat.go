package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// detailPrefix marks the standard-error line carrying a run's detail
// and end-to-end metrics, which --repeat collects next to the result.
const detailPrefix = "hnbench-detail: "

// childRun is what one child run reported.
type childRun struct {
	seed   int64
	res    result
	detail map[string]metric
	// notes are the child's own "hnbench: " lines on standard error:
	// failed checks and timed-out sessions.
	notes []string
}

// runRepeat runs the workload n times in child processes, one seed
// after another starting at seed, and prints every metric's median,
// quartiles and spread (interquartile distance over median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives). With
// --trace 1 each seed also runs untraced, and the tracing overhead of
// every end-to-end metric is the traced median minus the untraced one.
func runRepeat(args []string, seed int64, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	base := stripFlags(args, "repeat", "seed")
	traced := flagValue(args, "trace") == "1"
	var runs, plain []childRun
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		r, err := runChild(self, base, s, "")
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		runs = append(runs, r)
		fmt.Fprintf(os.Stderr, "seed %d: correct=%v attempted=%d failed=%d\n", s, r.res.Correct, r.res.Attempted, r.res.Failed)
		for _, note := range r.notes {
			fmt.Fprintf(os.Stderr, "  %s\n", note)
		}
		if traced {
			p, err := runChild(self, base, s, "0")
			if err != nil {
				return fmt.Errorf("seed %d untraced: %w", s, err)
			}
			plain = append(plain, p)
		}
	}
	fmt.Printf("%-40s %14s %14s %14s %9s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	printSummary("result", runs, func(r childRun) map[string]metric { return r.res.Metrics })
	printSummary("detail", runs, func(r childRun) map[string]metric { return r.detail })
	if traced {
		fmt.Println("# tracing overhead: traced median - untraced median (end-to-end metrics)")
		tracedE2E := medians(runs, func(r childRun) map[string]metric { return e2eOf(r.detail) })
		plainE2E := medians(plain, func(r childRun) map[string]metric { return r.res.Metrics })
		for _, name := range sortedKeys(plainE2E) {
			t, p := tracedE2E[name], plainE2E[name]
			fmt.Printf("%-40s %14.4f %14.4f %+13.4f %+8.1f%%  %s\n", name, p.Value, t.Value, t.Value-p.Value, 100*(t.Value-p.Value)/p.Value, p.Unit)
		}
	}
	var failed, attempted int64
	for _, r := range runs {
		failed += r.res.Failed
		attempted += r.res.Attempted
	}
	fmt.Printf("# %d runs, %d of %d operations failed\n", len(runs), failed, attempted)
	return nil
}

// e2eOf picks the end-to-end metrics a traced run reported among its
// detail (they carry an "e2e." prefix there).
func e2eOf(detail map[string]metric) map[string]metric {
	out := map[string]metric{}
	for k, v := range detail {
		if name, ok := strings.CutPrefix(k, "e2e."); ok {
			out[name] = v
		}
	}
	return out
}

// runChild runs one child with --seed s (and --trace forced when
// trace is non-empty), waits for it, and parses its result line and
// detail line.
func runChild(self string, base []string, s int64, trace string) (childRun, error) {
	args := append(append([]string(nil), base...), "--seed", strconv.FormatInt(s, 10))
	if trace != "" {
		args = append(stripFlags(args, "trace"), "--trace", trace)
	}
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return childRun{}, fmt.Errorf("%v: %s", err, lastLines(stderr.String(), 5))
	}
	out := childRun{seed: s}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out.res); err != nil {
		return childRun{}, fmt.Errorf("result line: %v", err)
	}
	sc := bufio.NewScanner(&stderr)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, detailPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &out.detail); err != nil {
				return childRun{}, fmt.Errorf("detail line: %v", err)
			}
		} else if strings.HasPrefix(line, "hnbench: ") {
			out.notes = append(out.notes, line)
		}
	}
	return out, nil
}

func printSummary(title string, runs []childRun, pick func(childRun) map[string]metric) {
	fmt.Printf("# %s\n", title)
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for k, m := range pick(r) {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	for _, name := range sortedKeys(vals) {
		q1, med, q3 := quartiles(vals[name])
		fmt.Printf("%-40s %14.4f %14.4f %14.4f %8.2f%%  %s\n", name, q1, med, q3, 100*(q3-q1)/math.Abs(med), units[name])
	}
}

func medians(runs []childRun, pick func(childRun) map[string]metric) map[string]metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for k, m := range pick(r) {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]metric{}
	for k, v := range vals {
		_, med, _ := quartiles(v)
		out[k] = metric{med, units[k]}
	}
	return out
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method).
func quartiles(data []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0], d[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*n)
		out[i-1] = (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return out[0], out[1], out[2]
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// stripFlags removes the named flags (and their values) from args.
func stripFlags(args []string, names ...string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		name, hasValue := flagName(args[i])
		drop := false
		for _, n := range names {
			if name == n {
				drop = true
			}
		}
		if !drop {
			out = append(out, args[i])
			continue
		}
		if !hasValue && i+1 < len(args) {
			i++
		}
	}
	return out
}

// flagValue returns the value given for a flag in args ("" if absent).
func flagValue(args []string, name string) string {
	for i := 0; i < len(args); i++ {
		n, hasValue := flagName(args[i])
		if n != name {
			continue
		}
		if hasValue {
			return args[i][strings.Index(args[i], "=")+1:]
		}
		if i+1 < len(args) {
			return args[i+1]
		}
	}
	return ""
}

// flagName parses "-x", "--x" or "--x=v" into its name and whether the
// value is attached.
func flagName(a string) (string, bool) {
	if !strings.HasPrefix(a, "-") {
		return "", false
	}
	a = strings.TrimLeft(a, "-")
	name, _, found := strings.Cut(a, "=")
	return name, found
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
