package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"misp/internal/core"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// combo is one (app, runtime, topology) point of the job mix: a 1x8
// MISP processor under ShredLib, or an 8-way SMP under the thread
// library, as the paper compares them.
type combo struct {
	app  string
	mode string // serve's spelling: "shred" or "thread"
	top  []int
}

var mixApps = []string{"dense_mmm", "kmeans", "swim", "raytracer", "sparse_mvm", "equake"}

func combos() []combo {
	var out []combo
	for _, app := range mixApps {
		out = append(out,
			combo{app, "shred", []int{7}},
			combo{app, "thread", []int{0, 0, 0, 0, 0, 0, 0, 0}})
	}
	return out
}

func (c combo) libMode() shredlib.Mode {
	if c.mode == "thread" {
		return shredlib.ModeThread
	}
	return shredlib.ModeShred
}

func (c combo) String() string { return fmt.Sprintf("%s/%s/%v", c.app, c.mode, c.top) }

// mix is the seeded job order: round r is a seeded permutation of every
// combo, so every whole number of rounds holds the same jobs whatever
// the seed and only their order changes.
type mix struct {
	seed   uint64
	all    []combo
	rounds [][]int
}

func newMix(seed uint64) *mix { return &mix{seed: seed, all: combos()} }

func (m *mix) job(i int) combo {
	r := i / len(m.all)
	for len(m.rounds) <= r {
		rng := rand.New(rand.NewPCG(m.seed, uint64(len(m.rounds))))
		m.rounds = append(m.rounds, rng.Perm(len(m.all)))
	}
	return m.all[m.rounds[r][i%len(m.all)]]
}

// simRecord is one sim_batch job's outcome.
type simRecord struct {
	c             combo
	prepare, run  time.Duration
	steps, cycles uint64
	err           error
}

func (s simRecord) latency() time.Duration { return s.prepare + s.run }

// runSimJob makes the calls mispsim makes for one job: a cold
// workloads.PrepareFlags, then Prepared.RunCtx under a cancelable
// context. It checks the checksum against the workload's reference.
func runSimJob(ctx context.Context, tr *tracer, c combo, size workloads.Size, req int) simRecord {
	rec := simRecord{c: c}
	w, err := workloads.ByName(c.app)
	if err != nil {
		rec.err = err
		return rec
	}
	cfg := workloads.DefaultConfig(core.Topology(c.top))
	cfg.SignalCost = 5000 // mispsim's -signal default
	cfg.RingPolicy = core.RingSuspendAll

	root := tr.begin("sim.job", 0, req)
	sp := tr.begin("workloads.prepare_cold", root.id, req)
	t0 := time.Now()
	pr, err := workloads.PrepareFlags(w, c.libMode(), cfg, size, 0)
	t1 := time.Now()
	sp.end()
	if err != nil {
		root.end()
		rec.err = err
		return rec
	}
	sr := tr.begin("core.run", root.id, req)
	res, err := pr.RunCtx(ctx)
	t2 := time.Now()
	sr.end()
	root.end()
	rec.prepare, rec.run = t1.Sub(t0), t2.Sub(t1)
	if err != nil {
		rec.err = err
		return rec
	}
	rec.steps, rec.cycles = res.Machine.Steps, res.Machine.MaxClock()
	if want := w.Ref(size); res.Checksum != want {
		rec.err = fmt.Errorf("%v: checksum %g, reference %g", c, res.Checksum, want)
	}
	return rec
}

// simPass runs jobs of m in order, one at a time: whole rounds until
// limit has passed, or, with count > 0, exactly count jobs. Stopping
// only at a round's end keeps the job mix the same in every run.
func simPass(ctx context.Context, tr *tracer, m *mix, limit time.Duration, count int) []simRecord {
	var recs []simRecord
	start := time.Now()
	for i := 0; ; i++ {
		if count > 0 && i == count {
			break
		}
		if count == 0 && i > 0 && i%len(m.all) == 0 && time.Since(start) >= limit {
			break
		}
		recs = append(recs, runSimJob(ctx, tr, m.job(i), workloads.SizeRef, i))
		// Collect the finished job's machine, untimed, so every job starts
		// from the heap a fresh mispsim process would have. Otherwise the
		// resident set, and the collector's work inside the next jobs,
		// depend on how many earlier machines are still uncollected.
		runtime.GC()
	}
	return recs
}

// checkSim fails the run on a wrong checksum or on a combo whose
// instruction or cycle count differs between two of its runs.
func checkSim(r *result, recs []simRecord) {
	type counts struct{ steps, cycles uint64 }
	seen := map[string]counts{}
	for _, rec := range recs {
		r.attempted++
		if rec.err != nil {
			r.failed++
			r.check(false, "sim_batch job %v: %v", rec.c, rec.err)
			continue
		}
		k := rec.c.String()
		if prev, ok := seen[k]; ok {
			r.check(prev == counts{rec.steps, rec.cycles},
				"%s: instrs/cycles %d/%d, earlier run %d/%d", k, rec.steps, rec.cycles, prev.steps, prev.cycles)
		}
		seen[k] = counts{rec.steps, rec.cycles}
	}
}

// roundCounts sums instructions and simulated cycles over the first
// round, the same twelve jobs for every seed.
func roundCounts(recs []simRecord) (instrs, cycles float64) {
	for _, rec := range recs[:min(len(recs), len(combos()))] {
		instrs += float64(rec.steps)
		cycles += float64(rec.cycles)
	}
	return instrs, cycles
}

// runSimBatch is the sim_batch workload: one caller in a closed loop
// over ref-size jobs, each cold-prepared and run as mispsim runs it.
func runSimBatch(o options, r *result) error {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)

	var m *mix
	setup, _, err := setupMedian(setupReps, func() (func() error, error) {
		m = newMix(o.seed)
		// Warm-up: one test-size job per combo, so every app's build and
		// run path has executed before timing.
		for i := range m.all {
			if rec := runSimJob(ctx, nil, m.job(i), workloads.SizeTest, i); rec.err != nil {
				return nil, fmt.Errorf("warm-up: %w", rec.err)
			}
		}
		return func() error { return nil }, nil
	})
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	limit := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		meter := startRSSMeter()
		t0 := time.Now()
		recs := simPass(ctx, nil, m, limit, 0)
		wall := time.Since(t0)
		setRSS(r, meter)
		checkSim(r, recs)
		simEndToEnd(r, recs, wall)
		instrs, cycles := roundCounts(recs)
		fmt.Printf("core.instrs %.0f core.cycles %.0f (first round)\n", instrs, cycles)
		return nil
	}

	// Traced run: an untraced pass over the first half of the time, then
	// the same jobs again with spans on; the difference in mean latency
	// is the tracing overhead.
	plain := simPass(ctx, nil, m, limit/2, 0)
	tr := newTracer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced := simPass(ctx, tr, m, 0, len(plain))
	runtime.ReadMemStats(&ms1)
	checkSim(r, append(plain, traced...))

	var run, prep, latA, latB []float64
	var runTotal time.Duration
	var steps uint64
	for i, rec := range traced {
		run = append(run, ms(rec.run))
		prep = append(prep, ms(rec.prepare))
		latA = append(latA, ms(plain[i].latency()))
		latB = append(latB, ms(rec.latency()))
		runTotal += rec.run
		steps += rec.steps
	}
	instrs, cycles := roundCounts(traced)
	alloc, gcs := memDelta(&ms0, &ms1)
	n := float64(len(traced))
	zeroLayers(r)
	r.set("core.run_ms", median(run))
	r.set("core.host_ns_per_instr", ratio(float64(runTotal.Nanoseconds()), float64(steps)))
	r.set("core.instrs", instrs)
	r.set("core.cycles", cycles)
	r.set("workloads.prepare_cold_ms", median(prep))
	r.set("host.alloc_mb_per_job", alloc/n)
	r.set("host.gc_cycles_per_job", float64(gcs)/n-1) // less the collection simPass forces per job
	r.set("trace.overhead_ms", mean(latB)-mean(latA))
	r.notes["core.instrs"] = "sum over the first round (12 jobs)"
	r.notes["trace.overhead_ms"] = fmt.Sprintf("traced minus untraced mean latency over the same %d jobs (untraced mean %.2f ms)", len(traced), mean(latA))
	spans := tr.all()
	printLayerTable(os.Stdout, "sim_batch per-layer self time", spans)
	return writeSpans(filepath.Join(o.work, "..", fmt.Sprintf("spans-sim_batch-%d.json", o.seed)), spans)
}

// simEndToEnd sets the end-to-end metrics of a closed-loop pass.
func simEndToEnd(r *result, recs []simRecord, wall time.Duration) {
	var lat []float64
	var steps uint64
	for _, rec := range recs {
		if rec.err == nil {
			lat = append(lat, ms(rec.latency()))
			steps += rec.steps
		}
	}
	r.set("jobs_per_s", float64(len(lat))/wall.Seconds())
	setLatency(r, lat)
	r.set("sim_mips", float64(steps)/wall.Seconds()/1e6)
}

// setLatency sets latency_p50_ms and latency_tail_ms, noting the
// tail's percentile and sample count. Samples must be in the order they
// were measured.
func setLatency(r *result, lat []float64) {
	r.set("latency_p50_ms", median(lat))
	v, pct, segs, ok := segmentedTail(lat, segment, minBeyond)
	r.check(ok, "only %d latency samples; the tail needs more than %d", len(lat), minBeyond)
	r.set("latency_tail_ms", v)
	r.notes["latency_tail_ms"] = fmt.Sprintf("p%.1f of %d samples", pct, len(lat))
	if segs > 1 {
		r.notes["latency_tail_ms"] = fmt.Sprintf("lower quartile of %d segments' p%.1f; %d samples", segs, pct, len(lat))
	}
}

// setRSS stops the meter and sets peak_rss_mb to the mean of its
// interval peaks. The Go heap's resident size steps by a whole
// simulated machine (128 MiB of physical memory) depending on when a
// collection lands, so the peak of one interval, or of a whole run, is
// bimodal; the mean over the run's intervals is not.
func setRSS(r *result, m *rssMeter) {
	peaks, err := m.finish()
	r.check(err == nil, "peak RSS: %v", err)
	r.set("peak_rss_mb", mean(peaks))
	r.notes["peak_rss_mb"] = fmt.Sprintf("mean of %d VmHWM peaks, one per %v; highest %.1f MiB", len(peaks), rssInterval, slices.Max(peaks))
}

// zeroLayers reports 0 for every per-layer metric a workload bypasses;
// the workload then sets the ones it measures.
func zeroLayers(r *result) {
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
}
