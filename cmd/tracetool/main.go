// Command tracetool analyzes JSONL token traces produced by the engines
// (sim, shm stress, msgnet, flight-recorder dumps): it reconstructs each
// token's journey from the causal span chains, breaks the critical path
// down into queue/toggle wait, counter time, link time, and retry
// backoff, and flags anomalies — retry storms, dedup conflicts,
// causality inversions, and time windows whose (Tog+W)/Tog exceeds a
// threshold.
//
//	tracetool -in run.jsonl
//	tracetool -in chaos.jsonl -top 5 -storm 3
//	tracetool -in run.jsonl -w 200us -windows 10 -ratio-threshold 3
//	tracetool -in flight.jsonl -tokens 17,42
//	tracetool -in chaos.jsonl -fail-on-anomaly
//
// Output is a deterministic function of the trace file: two invocations
// on the same input produce byte-identical reports, so CI can diff them.
// With -fail-on-anomaly the exit status is 1 when any anomaly was
// flagged, letting chaos pipelines gate on trace health.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"countnet/internal/obs"
)

func main() {
	anomalies, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(2)
	}
	if anomalies > 0 && failOnAnomaly {
		os.Exit(1)
	}
}

// failOnAnomaly is set by run from the flag; main turns it into the exit
// status so run stays testable.
var failOnAnomaly bool

// journeyKey identifies one operation's token: the engines keep (proc,
// tok) constant along a token's path.
type journeyKey struct {
	p, tok int32
}

// journey is one token's reconstructed path through the network.
type journey struct {
	key    journeyKey
	events []obs.Event // causal order: by span id, spanless events by T
	total  int64       // end-to-end duration (exit Dur, else T extent)

	queue, counter, link, retry, other int64

	retries  int
	maxStorm int // longest run of consecutive retry events
}

func run(args []string, w io.Writer) (anomalies int, err error) {
	fs := flag.NewFlagSet("tracetool", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "JSONL trace to analyze (required; \"-\" for stdin)")
		top      = fs.Int("top", 10, "how many slowest tokens to list")
		wFlag    = fs.Duration("w", 0, "the run's injected per-node delay W, for the per-window (Tog+W)/Tog column")
		windows  = fs.Int("windows", 8, "time windows for the per-window Tog breakdown (0 disables)")
		ratioThr = fs.Float64("ratio-threshold", 0, "flag windows whose (Tog+W)/Tog exceeds this (0 disables; needs -w)")
		stormLen = fs.Int("storm", 3, "consecutive retries on one token counting as a retry storm")
		tokens   = fs.String("tokens", "", "comma-separated token ids to print full journeys for")
		failAnom = fs.Bool("fail-on-anomaly", false, "exit 1 when any anomaly is flagged")
	)
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	failOnAnomaly = *failAnom
	if *in == "" {
		return 0, fmt.Errorf("-in is required")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		r = f
	}
	meta, events, err := obs.ReadJSONL(r)
	if err != nil {
		return 0, err
	}
	if len(events) == 0 {
		return 0, fmt.Errorf("%s: trace has no events", *in)
	}

	unit := meta.Unit
	if unit == "" {
		unit = "units"
	}
	fmt.Fprintf(w, "trace: engine=%s net=%s[%d] unit=%s events=%d",
		meta.Engine, meta.Net, meta.Width, unit, len(events))
	if meta.Reason != "" {
		fmt.Fprintf(w, " reason=%s", meta.Reason)
	}
	fmt.Fprintln(w)

	journeys := buildJourneys(events)
	fmt.Fprintf(w, "tokens: %d\n", len(journeys))

	printBreakdown(w, journeys, unit)
	printSlowest(w, journeys, *top, unit)
	if *tokens != "" {
		if err := printJourneys(w, journeys, *tokens, unit); err != nil {
			return 0, err
		}
	}

	anomalies += reportStorms(w, journeys, *stormLen)
	anomalies += reportDedups(w, events)
	anomalies += reportInversions(w, events)
	anomalies += reportWindows(w, events, *windows, float64(wFlag.Nanoseconds()), *ratioThr, unit)
	if anomalies == 0 {
		fmt.Fprintln(w, "anomalies: none")
	} else {
		fmt.Fprintf(w, "anomalies: %d flagged\n", anomalies)
	}
	return anomalies, nil
}

// buildJourneys groups events per token and orders each group causally:
// by span id when stamped (ids increase along causal edges), by timestamp
// for unstamped traces. Events a node recorded on its own behalf
// (obs.NodeProc, such as dedups) belong to no journey; reportDedups
// covers them per node.
func buildJourneys(events []obs.Event) []*journey {
	byKey := make(map[journeyKey]*journey)
	var order []journeyKey
	for _, ev := range events {
		if ev.P == obs.NodeProc {
			continue
		}
		k := journeyKey{p: ev.P, tok: ev.Tok}
		j := byKey[k]
		if j == nil {
			j = &journey{key: k}
			byKey[k] = j
			order = append(order, k)
		}
		j.events = append(j.events, ev)
	}
	journeys := make([]*journey, 0, len(byKey))
	for _, k := range order {
		j := byKey[k]
		sort.SliceStable(j.events, func(a, b int) bool {
			ea, eb := j.events[a], j.events[b]
			if ea.Span != 0 && eb.Span != 0 {
				return ea.Span < eb.Span
			}
			return ea.T < eb.T
		})
		analyzeJourney(j)
		journeys = append(journeys, j)
	}
	return journeys
}

// analyzeJourney computes the critical-path breakdown of one token:
// every traced duration is attributed to its category, and whatever the
// end-to-end time does not account for (scheduling, reply delivery,
// untraced links) lands in "other".
func analyzeJourney(j *journey) {
	storm := 0
	// Hop waits are measured from enqueue at the sender, so on the faulty
	// path a hop's Dur includes the backoff pauses of the retries that
	// preceded it in the chain; pending carries that backoff forward so it
	// is deducted from the hop it delayed, keeping the categories disjoint.
	var pending int64
	deduct := func(dur int64) int64 {
		dur -= pending
		pending = 0
		if dur < 0 {
			dur = 0
		}
		return dur
	}
	var first, last int64
	for i, ev := range j.events {
		if i == 0 || ev.T-ev.Dur < first {
			first = ev.T - ev.Dur
		}
		if ev.T > last {
			last = ev.T
		}
		switch ev.Kind {
		case obs.KindBalancer, obs.KindDiffract:
			j.queue += deduct(ev.Dur)
		case obs.KindCounter:
			j.counter += deduct(ev.Dur)
		case obs.KindLink:
			j.link += ev.Dur
		case obs.KindRetry:
			j.retry += ev.Dur
			pending += ev.Dur
			j.retries++
		case obs.KindExit:
			j.total = ev.Dur
		}
		if ev.Kind == obs.KindRetry {
			storm++
			if storm > j.maxStorm {
				j.maxStorm = storm
			}
		} else {
			storm = 0
		}
	}
	if j.total == 0 {
		j.total = last - first
	}
	j.other = j.total - j.queue - j.counter - j.link - j.retry
	if j.other < 0 {
		j.other = 0
	}
}

// printBreakdown aggregates the per-category critical path over all
// journeys.
func printBreakdown(w io.Writer, journeys []*journey, unit string) {
	var total, queue, counter, link, retry, other int64
	for _, j := range journeys {
		total += j.total
		queue += j.queue
		counter += j.counter
		link += j.link
		retry += j.retry
		other += j.other
	}
	if total == 0 {
		fmt.Fprintln(w, "critical path: no measured durations")
		return
	}
	n := int64(len(journeys))
	fmt.Fprintf(w, "critical path (%s, aggregated over %d tokens, mean end-to-end %d):\n",
		unit, n, total/n)
	row := func(name string, v int64) {
		fmt.Fprintf(w, "  %-14s %6.1f%%  total %-12d mean/token %d\n",
			name, 100*float64(v)/float64(total), v, v/n)
	}
	row("queue+toggle", queue)
	row("counter", counter)
	row("link", link)
	row("retry backoff", retry)
	row("other", other)
}

// printSlowest lists the top-N tokens by end-to-end time.
func printSlowest(w io.Writer, journeys []*journey, top int, unit string) {
	if top <= 0 || len(journeys) == 0 {
		return
	}
	sorted := make([]*journey, len(journeys))
	copy(sorted, journeys)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].total != sorted[b].total {
			return sorted[a].total > sorted[b].total
		}
		if sorted[a].key.tok != sorted[b].key.tok {
			return sorted[a].key.tok < sorted[b].key.tok
		}
		return sorted[a].key.p < sorted[b].key.p
	})
	if top > len(sorted) {
		top = len(sorted)
	}
	fmt.Fprintf(w, "slowest %d tokens (%s):\n", top, unit)
	for _, j := range sorted[:top] {
		fmt.Fprintf(w, "  tok %-6d p%-4d total %-10d queue %3.0f%% counter %3.0f%% link %3.0f%% retry %3.0f%% other %3.0f%%  hops %d retries %d\n",
			j.key.tok, j.key.p, j.total,
			pct(j.queue, j.total), pct(j.counter, j.total), pct(j.link, j.total),
			pct(j.retry, j.total), pct(j.other, j.total),
			len(j.events), j.retries)
	}
}

func pct(v, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}

// printJourneys dumps the full causal chain of the requested token ids.
func printJourneys(w io.Writer, journeys []*journey, spec, unit string) error {
	want := map[int32]bool{}
	for _, part := range strings.Split(spec, ",") {
		id, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return fmt.Errorf("-tokens: %w", err)
		}
		want[int32(id)] = true
	}
	for _, j := range journeys {
		if !want[j.key.tok] {
			continue
		}
		fmt.Fprintf(w, "journey tok %d (p%d), %d events, total %d %s:\n",
			j.key.tok, j.key.p, len(j.events), j.total, unit)
		for _, ev := range j.events {
			fmt.Fprintf(w, "  t=%-12d %-8s node=%-4d dur=%-10d span=%d parent=%d",
				ev.T, ev.Kind, ev.Node, ev.Dur, ev.Span, ev.Parent)
			if ev.Value >= 0 {
				fmt.Fprintf(w, " value=%d", ev.Value)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// reportStorms flags tokens whose causal chain contains a run of
// consecutive retry events at least stormLen long: the signature of a
// partitioned or heavily dropping link holding one token hostage.
func reportStorms(w io.Writer, journeys []*journey, stormLen int) int {
	if stormLen <= 0 {
		return 0
	}
	var stormy []*journey
	for _, j := range journeys {
		if j.maxStorm >= stormLen {
			stormy = append(stormy, j)
		}
	}
	if len(stormy) == 0 {
		return 0
	}
	sort.SliceStable(stormy, func(a, b int) bool {
		if stormy[a].maxStorm != stormy[b].maxStorm {
			return stormy[a].maxStorm > stormy[b].maxStorm
		}
		if stormy[a].key.tok != stormy[b].key.tok {
			return stormy[a].key.tok < stormy[b].key.tok
		}
		return stormy[a].key.p < stormy[b].key.p
	})
	fmt.Fprintf(w, "anomaly: retry storm on %d tokens (>= %d consecutive retries):\n",
		len(stormy), stormLen)
	show := stormy
	if len(show) > 5 {
		show = show[:5]
	}
	for _, j := range show {
		fmt.Fprintf(w, "  tok %-6d p%-4d longest run %d, %d retries total, %d backoff\n",
			j.key.tok, j.key.p, j.maxStorm, j.retries, j.retry)
	}
	if len(stormy) > len(show) {
		fmt.Fprintf(w, "  ... and %d more\n", len(stormy)-len(show))
	}
	return len(stormy)
}

// reportDedups flags duplicate-suppression conflicts grouped by node.
func reportDedups(w io.Writer, events []obs.Event) int {
	perNode := map[int32]int{}
	total := 0
	for _, ev := range events {
		if ev.Kind == obs.KindDedup {
			perNode[ev.Node]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	nodes := make([]int32, 0, len(perNode))
	for n := range perNode {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(a, b int) bool {
		if perNode[nodes[a]] != perNode[nodes[b]] {
			return perNode[nodes[a]] > perNode[nodes[b]]
		}
		return nodes[a] < nodes[b]
	})
	fmt.Fprintf(w, "anomaly: %d dedup conflicts across %d nodes:", total, len(nodes))
	show := nodes
	if len(show) > 5 {
		show = show[:5]
	}
	for _, n := range show {
		fmt.Fprintf(w, " n%d:%d", n, perNode[n])
	}
	if len(nodes) > len(show) {
		fmt.Fprintf(w, " ...")
	}
	fmt.Fprintln(w)
	return 1
}

// reportInversions flags causality inversions: events whose recorded
// completion time precedes their causal parent's. A healthy single-clock
// trace has none; one appearing means clock skew or a broken stamp.
func reportInversions(w io.Writer, events []obs.Event) int {
	bySpan := make(map[uint64]obs.Event, len(events))
	for _, ev := range events {
		if ev.Span != 0 {
			bySpan[ev.Span] = ev
		}
	}
	count := 0
	for _, ev := range events {
		if ev.Span == 0 || ev.Parent == 0 {
			continue
		}
		parent, ok := bySpan[ev.Parent]
		if !ok {
			continue
		}
		if ev.T < parent.T || ev.Span <= parent.Span {
			count++
			if count <= 5 {
				fmt.Fprintf(w, "anomaly: causality inversion: %s span %d at t=%d precedes parent %s span %d at t=%d (tok %d)\n",
					ev.Kind, ev.Span, ev.T, parent.Kind, parent.Span, parent.T, ev.Tok)
			}
		}
	}
	if count > 5 {
		fmt.Fprintf(w, "  ... %d causality inversions total\n", count)
	}
	return count
}

// reportWindows splits the trace's time extent into equal windows,
// computes each window's mean balancer wait (its Tog), and — when W and a
// threshold are given — flags windows whose (Tog+W)/Tog exceeds the
// threshold: phases of the run where the linearizability-gap measure was
// worst.
func reportWindows(w io.Writer, events []obs.Event, windows int, effW, threshold float64, unit string) int {
	if windows <= 0 {
		return 0
	}
	var lo, hi int64
	first := true
	for _, ev := range events {
		if ev.Kind != obs.KindBalancer && ev.Kind != obs.KindDiffract {
			continue
		}
		if first || ev.T < lo {
			lo = ev.T
		}
		if first || ev.T > hi {
			hi = ev.T
		}
		first = false
	}
	if first || hi == lo {
		return 0
	}
	span := hi - lo + 1
	sums := make([]int64, windows)
	counts := make([]int64, windows)
	for _, ev := range events {
		if ev.Kind != obs.KindBalancer && ev.Kind != obs.KindDiffract {
			continue
		}
		idx := int((ev.T - lo) * int64(windows) / span)
		sums[idx] += ev.Dur
		counts[idx]++
	}
	fmt.Fprintf(w, "per-window Tog (%s, %d windows over [%d, %d]):\n", unit, windows, lo, hi)
	flagged := 0
	for i := 0; i < windows; i++ {
		from := lo + int64(i)*span/int64(windows)
		to := lo + int64(i+1)*span/int64(windows)
		if counts[i] == 0 {
			fmt.Fprintf(w, "  [%d, %d) no balancer events\n", from, to)
			continue
		}
		tog := float64(sums[i]) / float64(counts[i])
		line := fmt.Sprintf("  [%d, %d) tog %.0f over %d waits", from, to, tog, counts[i])
		if effW > 0 && tog > 0 {
			ratio := (tog + effW) / tog
			line += fmt.Sprintf(", (Tog+W)/Tog %.2f", ratio)
			if threshold > 0 && ratio > threshold {
				line += fmt.Sprintf("  << over threshold %.2f", threshold)
				flagged++
			}
		}
		fmt.Fprintln(w, line)
	}
	if flagged > 0 {
		fmt.Fprintf(w, "anomaly: %d of %d windows over the (Tog+W)/Tog threshold\n", flagged, windows)
	}
	return flagged
}
