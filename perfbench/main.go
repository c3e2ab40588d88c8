// Command perfbench is the repository benchmark: closed-loop workloads
// through the public counter calls (countnet.Counter, countnet.Queue and
// the adaptive front-end), with their outputs checked, and a traced
// layer suite that also covers the waiting filter behind
// countnet.LinearizableCounter.
//
//	perfbench -workload counter -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the run is untraced and reports the end-to-end metrics;
// with -trace 1 half the time runs the workload untraced and half runs
// the traced layer suite, and the per-layer metrics are reported. The
// last line of standard output is the result object; the line before it
// is the full report, with every metric's sample count and the
// environment. BENCHMARK.json at the repository root lists the workloads
// and metrics, and METRICS.md in this directory maps each per-layer
// metric to the end-to-end metric it should move.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"countnet"
	"countnet/internal/shm"
)

// setupReps is how many times set-up is timed; setup_s is the median.
const setupReps = 101

// metric is one reported figure with its sample count.
type metric struct {
	name    string
	value   float64
	unit    string
	samples uint64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "counter, queue or adaptive")
	seed := flags.Int64("seed", 1, "seed for every generated input")
	seconds := flags.Float64("seconds", 10, "measured seconds")
	trace := flags.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced layer suite, per-layer metrics")
	root := flags.String("root", ".", "checkout root, for the environment stamp")
	spanDir := flags.String("span-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be in (0, 60] and -trace 0 or 1")
		return 2
	}
	traced := *trace == 1
	callers := wl.callers
	if traced {
		callers = max(callers, 2) // the suite's two-caller probes
	}
	if procs := runtime.GOMAXPROCS(0); callers > procs {
		fmt.Fprintf(stderr, "perfbench: %s needs %d callers but GOMAXPROCS is %d; refusing to measure the scheduler\n",
			wl.name, callers, procs)
		return 2
	}
	limit := time.Duration(*seconds*2+30) * time.Second // under the 180 s a run may take
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "perfbench: no result after %v, aborting\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	setups := make([]float64, setupReps)
	var run runner
	for i := range setups {
		t0 := time.Now()
		r, err := wl.setup()
		setups[i] = time.Since(t0).Seconds()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			return 2
		}
		run = r
	}

	dur := time.Duration(*seconds * float64(time.Second))
	if traced {
		dur /= 2
	}
	res, err := run(newWindow(300*time.Millisecond, dur), *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 2
	}
	attempted, failed, notes := res.attempted, res.failed, res.notes
	e2e := []metric{
		{"throughput_ops_s", res.throughput(), "1/s", res.windowOps()},
		{"latency_p50_ns", res.latency(0.5), "ns", res.windowOps()},
		{"latency_p99_ns", res.latency(0.99), "ns", res.windowOps()},
		{"setup_s", median(setups), "s", setupReps},
	}

	var layers []metric
	var spanFile string
	if traced {
		s, err := runSuite(newWindow(100*time.Millisecond, dur/4), *seed)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced suite: %v\n", err)
			return 2
		}
		attempted += s.attempted
		failed += s.failed
		notes = append(notes, s.notes...)
		home := s.probes[wl.probe]
		layers = append(s.metrics,
			metric{"failed_frac", float64(failed) / float64(attempted), "frac", uint64(attempted)},
			metric{"allocs_per_op", float64(res.allocs) / float64(res.attempted), "allocs/op", uint64(res.attempted)},
			metric{"lincheck.nonlin_ops", float64(res.lin.NonLinearizable), "count", uint64(res.lin.Total)},
			metric{"trace.overhead_ns_p50", home.latency(0.5) - res.latency(0.5), "ns", home.windowOps()},
		)
		topoNs, compileNs, err := setupLayers()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up layers: %v\n", err)
			return 2
		}
		layers = append(layers,
			metric{"setup.topology_ns", topoNs, "ns", setupReps},
			metric{"setup.compile_ns", compileNs, "ns", setupReps},
		)
		if *spanDir != "" {
			spanFile = filepath.Join(*spanDir, "spans-"+wl.name+".tsv")
			if err := s.writeSpans(spanFile); err != nil {
				fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
				return 2
			}
		}
	}
	for _, n := range notes {
		fmt.Fprintf(stderr, "perfbench: %s: FAILED: %s\n", wl.name, n)
	}

	report := map[string]any{
		"workload":   wl.name,
		"params":     wl.params,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"env":        stamp(*root),
		"end_to_end": detailed(e2e),
		"attempted":  attempted,
		"failed":     failed,
	}
	if traced {
		report["per_layer"] = detailed(layers)
		report["spans"] = spanFile
	}
	final := e2e
	if traced {
		final = layers
	}
	if err := printJSON(stdout, report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	result := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   brief(final),
	}
	if err := printJSON(stdout, result); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// setupLayers times the two set-up layers separately: building the
// topology and compiling it into a runnable network (medians).
func setupLayers() (topoNs, compileNs float64, err error) {
	tops := make([]float64, setupReps)
	comps := make([]float64, setupReps)
	for i := range tops {
		t0 := time.Now()
		t, err := countnet.BitonicTopology(width)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		if _, err := shm.Compile(t.Graph(), shm.Options{}); err != nil {
			return 0, 0, err
		}
		tops[i] = float64(t1.Sub(t0).Nanoseconds())
		comps[i] = float64(time.Since(t1).Nanoseconds())
	}
	return median(tops), median(comps), nil
}

func detailed(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit, "samples": m.samples}
	}
	return out
}

func brief(ms []metric) map[string]any {
	out := make(map[string]any, len(ms))
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// environment is the stamp every report carries.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	// GitHead is the checked-out commit, empty outside a git work tree;
	// SourceSHA256 identifies the measured source there too.
	GitHead      string `json:"git_head"`
	SourceSHA256 string `json:"source_sha256"`
}

func stamp(root string) environment {
	return environment{
		Nproc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Go:           runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPU:          cpuModel(),
		GitHead:      gitHead(root),
		SourceSHA256: sourceDigest(root),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead asks git only when root itself is a work tree, so a checkout
// nested inside another repository is not stamped with that one's commit.
func gitHead(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return ""
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and content of every Go source and go.mod
// file under root, skipping dot-directories such as the build output.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}
