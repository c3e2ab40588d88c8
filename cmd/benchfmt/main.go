// Command benchfmt converts `go test -bench` output into the repository's
// machine-readable benchmark format: a JSON document with one record per
// benchmark (name, iterations, ns/op, B/op, allocs/op), so CI can archive
// BENCH_sim.json / BENCH_shm.json and the perf trajectory has data points
// (format documented in EXPERIMENTS.md).
//
//	go test -run '^$' -bench . -benchmem . | benchfmt -o BENCH_sim.json
//
// With -o the JSON goes to the named file and the raw bench output is
// echoed to stdout, so logs keep the human view; without -o the JSON
// document itself is stdout and nothing is echoed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
)

// Record is one benchmark measurement. Metrics carries any custom
// b.ReportMetric columns (e.g. the stress benchmarks' walkops/s) keyed
// by their unit.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Document is the file layout.
type Document struct {
	Benchmarks []Record `json:"benchmarks"`
}

// benchLine matches e.g.
// "BenchmarkNet-8   1000000   1234 ns/op   56 B/op   3 allocs/op"
// (the -benchmem columns are optional).
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// metricCol matches one trailing "<value> <unit>" column; custom
// ReportMetric units sort between ns/op and the -benchmem columns, so
// B/op and allocs/op are folded back into their dedicated fields here.
var metricCol = regexp.MustCompile(`([\d.eE+-]+)\s+([A-Za-z][\w/%.-]*)`)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchfmt:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, echo io.Writer) error {
	fs := flag.NewFlagSet("benchfmt", flag.ContinueOnError)
	out := fs.String("o", "", "write the JSON document to this file (default stdout, suppressing the echo)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var doc Document
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if *out != "" {
			fmt.Fprintln(echo, line)
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rec := Record{Name: m[1]}
		rec.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		rec.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			rec.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			rec.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		for _, col := range metricCol.FindAllStringSubmatch(line[len(m[0]):], -1) {
			v, err := strconv.ParseFloat(col[1], 64)
			if err != nil {
				continue
			}
			switch col[2] {
			case "B/op":
				rec.BytesPerOp = int64(v)
			case "allocs/op":
				rec.AllocsPerOp = int64(v)
			default:
				if rec.Metrics == nil {
					rec.Metrics = map[string]float64{}
				}
				rec.Metrics[col[2]] = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = echo.Write(data)
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}
