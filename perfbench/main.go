// Command perfbench is the repository's benchmark: it serves a seeded
// dataset profile through an in-process internal/serve handler on a
// loopback listener, drives it with closed-loop clients, checks every
// answer against its own float64 brute force or against a property of the
// method, and prints the workload's metrics as one JSON line.
//
//	perfbench --workload sift-beam --seed 1 --seconds 30 --trace 0
//
// With --trace 1 it makes the traced run instead: one span per layer
// boundary, per-layer metrics, and the tracing overhead. README.md lists
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// spec describes one workload.
type spec struct {
	name    string
	profile string // internal/dataset profile
	n       int    // vectors built into the database
	nq      int    // queries, in an order drawn by the run's seed
	// round, when set, makes the clients cycle the first round queries
	// instead, in a seeded order, and end the timed phase only after whole
	// rounds. README.md says why gist-routes needs it.
	round int
	// clients is the closed loop's size. The ingest workload needs two, a
	// searcher and a writer. On sift-beam two searchers keep both CPUs of
	// the two-CPU reference machine busy: with one, every hand-over woke
	// an idle virtual CPU, and the figures followed the host's other load.
	// On gist-routes a second client made each route's latency depend on
	// which route ran beside it.
	clients int
	// modes is the searching client's request rotation: "" sends a plain
	// request (the default beam path), anything else names a "mode".
	modes []string
	// tail is the latency percentile reported as search_tail_ms; the
	// README gives the sample counts behind it.
	tail float64
	// modeled is the number of queries Database.Run replays for
	// modeled_qps.
	modeled int
	// probes is the number of queries sent, probeRounds times each, as
	// tiered and as exact requests after the timed phase, on workloads
	// whose timed phase does not send them.
	probes int
	// writeRate, when set, makes the database mutable and journaled: one
	// client writes at this many operations per second while the other
	// searches.
	writeRate float64
}

var specs = []spec{
	{name: "sift-beam", profile: "SIFT", n: 10000, nq: 1000, clients: 2, modes: []string{""},
		tail: 0.95, modeled: 256, probes: 20},
	{name: "gist-routes", profile: "GIST", n: 2000, nq: 200, round: 12, clients: 1, modes: []string{"ndp", "tiered", "exact"},
		tail: 0.75, modeled: 128},
	{name: "glove-ingest", profile: "GloVe", n: 10000, nq: 500, clients: 2, modes: []string{""},
		tail: 0.95, modeled: 256, probes: 12, writeRate: 70},
}

const (
	k  = 10
	ef = 64
	// probeRounds is how many times each probe query is sent per route.
	probeRounds = 16
	// recallFloor fails a run whose recall_at_10 reads below it.
	recallFloor = 0.90
	// setups is how many times a run builds its database; setup_s is the
	// median.
	setups = 3
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's last line of output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's state: the outcome being filled in and the
// first check that failed.
type run struct {
	spec
	seed    uint64
	seconds float64
	dir     string // scratch directory inside the checkout
	out     outcome
	mu      sync.Mutex // guards problem: clients fail checks concurrently
	problem string
}

func (r *run) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("%s measured as %v", name, v)
		v = 0
	}
	r.out.Metrics[name] = metric{v, unit}
}

// fail records a failed correctness check; the first one is reported.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.problem == "" {
		r.problem = fmt.Sprintf(format, args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: "+names())
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run with per-layer metrics")
	flag.Parse()
	var sp *spec
	for i := range specs {
		if specs[i].name == *workload {
			sp = &specs[i]
		}
	}
	if sp == nil || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", names())
		os.Exit(2)
	}
	want, err := required(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(filepath.Join(".bench_build"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := &run{spec: *sp, seed: *seed, seconds: *seconds, dir: dir,
		out: outcome{Correct: true, Metrics: map[string]metric{}}}
	if *trace == 1 {
		err = r.traced()
	} else {
		err = r.measure()
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.name, err)
		os.Exit(1)
	}
	// Every workload is chosen so that no operation fails: a failed
	// request, or a metric left unmeasured because its requests failed,
	// fails the run.
	if r.out.Failed > 0 {
		r.fail("%d of %d operations failed", r.out.Failed, r.out.Attempted)
	}
	for _, name := range want {
		if _, ok := r.out.Metrics[name]; !ok {
			r.fail("%s was not measured", name)
		}
	}
	r.report()
	if r.problem != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.name, r.problem)
		os.Exit(1)
	}
}

// required lists the metrics a run must report: BENCHMARK.json's
// end-to-end metrics, or its per-layer metrics on a traced run.
func required(traced bool) ([]string, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type named struct {
		Name string `json:"name"`
	}
	var b struct {
		EndToEnd []named `json:"end_to_end"`
		PerLayer []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	return out, nil
}

func names() string {
	var ns []string
	for _, s := range specs {
		ns = append(ns, s.name)
	}
	return strings.Join(ns, ", ")
}

// report prints every metric by name and unit on standard error and the
// JSON outcome as the last line of standard output.
func (r *run) report() {
	r.out.Correct = r.problem == ""
	keys := make([]string, 0, len(r.out.Metrics))
	for name := range r.out.Metrics {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	fmt.Fprintf(os.Stderr, "%s seed %d: %d operations attempted, %d failed\n", r.name, r.seed, r.out.Attempted, r.out.Failed)
	for _, name := range keys {
		m := r.out.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(r.out)
	if err != nil {
		panic(err) // only finite numbers are ever set
	}
	fmt.Println(string(line))
}
