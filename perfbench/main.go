// Command perfbench is the repository's benchmark. It runs one workload
// in this process — the simulator as mispsim drives it, or an in-process
// mispserve daemon behind a loopback HTTP listener — checks every
// output, and prints each metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans around each layer's exported calls and reports
// the per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator or the daemon sees,
// measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"sim_mips", "Minstr/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"core.run_ms", "ms"},
	{"core.host_ns_per_instr", "ns"},
	{"core.instrs", "count"},
	{"core.cycles", "count"},
	{"workloads.prepare_cold_ms", "ms"},
	{"snap.capture_ms", "ms"},
	{"snap.image_bytes", "bytes"},
	{"snap.fork_ms", "ms"},
	{"workloads.warm_hit_ratio", "ratio"},
	{"host.alloc_mb_per_job", "MiB"},
	{"host.gc_cycles_per_job", "count"},
	{"serve.admit_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.artifact_ms", "ms"},
	{"serve.artifact_bytes", "bytes"},
	{"serve.cache_put_ms", "ms"},
	{"serve.cache_get_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"journal.append_us", "us"},
	{"journal.appends_per_job", "count"},
	{"http.overhead_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.retries", "count"},
	{"loadgen.lag_tail_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	work     string // scratch directory for daemon state and span files
	conns    int    // client connections: the host's CPU count
}

// result collects a run's metrics, counts and failed checks.
type result struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newResult() *result {
	return &result{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: sim_batch, serve_miss or serve_hit")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured time in seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.work, "workdir", filepath.Join(".bench_build", "work"), "scratch directory (removed at exit)")
	flag.Parse()
	o.trace = *traceFlag == 1
	o.conns = runtime.NumCPU()
	if *traceFlag != 0 && *traceFlag != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	run, ok := map[string]func(options, *result) error{
		"sim_batch":  runSimBatch,
		"serve_miss": runServeMiss,
		"serve_hit":  runServeHit,
	}[o.workload]
	if !ok {
		fatalf("unknown -workload %q (want sim_batch, serve_miss or serve_hit)", o.workload)
	}
	o.work = filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	res := newResult()
	err := run(o, res)
	if rmErr := os.RemoveAll(o.work); rmErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", rmErr)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if !emit(o, res) {
		os.Exit(1)
	}
}

// emit prints every metric with its unit, the failed checks, and the
// final JSON line. It reports whether every check passed.
func emit(o options, r *result) bool {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	fmt.Printf("\n%s seed=%d seconds=%g trace=%t conns=%d\n", o.workload, o.seed, o.seconds, o.trace, o.conns)
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		r.check(ok, "metric %s was not measured", d.name)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("  %-26s %14.6g %-9s %s\n", d.name, v, d.unit, r.notes[d.name])
	}
	var extra []string
	for name := range r.values {
		if !slices.ContainsFunc(defs, func(d metricDef) bool { return d.name == name }) {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  %-26s %14.6g (not in this run's metric set) %s\n", name, r.values[name], r.notes[name])
	}
	fmt.Printf("  %-26s %14.6g ratio     %d failed of %d attempted\n", "error_rate",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	correct := len(r.problems) == 0 && r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil { // a NaN or infinite metric
		fatalf("result: %v", err)
	}
	fmt.Println(string(line))
	return correct
}

// rssInterval is the length of one peak-RSS interval.
const rssInterval = 500 * time.Millisecond

// rssMeter records the process's peak resident set (VmHWM) over each
// interval of a measured pass, resetting the peak at every interval's
// end.
type rssMeter struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// startRSSMeter resets the peak and starts measuring intervals.
func startRSSMeter() *rssMeter {
	m := &rssMeter{stop: make(chan struct{}), done: make(chan struct{})}
	m.err = resetPeakRSS()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				m.sample()
			}
		}
	}()
	return m
}

// sample records the current interval's peak and starts the next.
func (m *rssMeter) sample() {
	v, err := peakRSSMiB()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil && m.err == nil {
		m.err = err
	}
	m.peaks = append(m.peaks, v)
}

// finish ends the last interval and returns the interval peaks in MiB.
func (m *rssMeter) finish() ([]float64, error) {
	close(m.stop)
	<-m.done
	m.sample()
	return m.peaks, m.err
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) from
// its current resident set.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// setupMedian runs setup reps times and returns the median time one
// set-up took, in seconds. Each set-up but the last is torn down, untimed,
// before the next starts; the last one's teardown is returned for the
// caller to run when it is done with that state.
func setupMedian(reps int, setup func() (teardown func() error, err error)) (float64, func() error, error) {
	var secs []float64
	var teardown func() error
	for i := 0; i < reps; i++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return 0, nil, err
			}
		}
		t0 := time.Now()
		td, err := setup()
		if err != nil {
			return 0, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		teardown = td
	}
	fmt.Printf("set-up times (s): %.4f\n", secs)
	// Hand the set-ups' garbage back to the OS, untimed, so the measured
	// pass starts from the same resident set whatever set-up left.
	debug.FreeOSMemory()
	return median(secs), teardown, nil
}

// memDelta is the Go heap activity between two MemStats readings.
func memDelta(a, b *runtime.MemStats) (allocMiB float64, gcs uint32) {
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), b.NumGC - a.NumGC
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
