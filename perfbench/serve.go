package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"misp/internal/core"
	"misp/internal/serve"
)

// Offered rates of the open-loop workloads. A test-size miss costs
// about 90 ms cold or 30 ms from a warm fork on the daemon's default
// single worker on a 2-core host, so 5/s is about half its miss
// capacity; a hit costs well under a millisecond, so 250/s is far below
// hit capacity.
const (
	missRate = 5.0
	hitRate  = 250.0
)

// Signal costs keep every request's key distinct: warm-up requests use
// the low range, measured requests count up from measuredSignal.
const (
	warmupSignal   = 100
	measuredSignal = 1000
)

// daemon is an in-process mispserve: serve.NewServer with the on-disk
// cache and journal, the CLI's default workers and governance (off),
// behind serve.Server.Handler on a loopback listener, driven through
// serve.Client as `mispserve submit` drives it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	client *serve.Client
	served chan error
}

func startDaemon(dir string) (*daemon, error) {
	srv, err := serve.NewServer(serve.Config{
		QueueDepth: 64, // the -queue default
		CacheDir:   filepath.Join(dir, "cache"),
		JournalDir: filepath.Join(dir, "journal"),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "mispserve: "+format+"\n", args...)
		},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Drain(context.Background()))
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		client: serve.NewClient("http://" + ln.Addr().String()),
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, then closes its listener, as mispserve does
// on SIGTERM, and waits for the HTTP server to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := d.srv.Drain(ctx)
	shutErr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(drainErr, shutErr)
}

// reply is what one request brought back.
type reply struct {
	view    *serve.JobView
	summary []byte
	instrs  uint64
	sent    time.Time // when the submit went out
	subDone time.Time // when the submit's reply arrived
}

// call submits req with ?wait=1 and then fetches its summary.json.
func (d *daemon) call(req *serve.Request) (reply, error) {
	ctx := context.Background()
	rep := reply{sent: time.Now()}
	v, err := d.client.Submit(ctx, req, true)
	rep.subDone = time.Now()
	if err != nil {
		return rep, err
	}
	rep.view = v
	if v.Status != serve.StatusDone {
		return rep, fmt.Errorf("job %s is %s: %s", v.ID, v.Status, v.Error)
	}
	rep.summary, err = d.client.Artifact(ctx, v.ID, "summary.json")
	if err != nil {
		return rep, err
	}
	var sum struct {
		Instrs     uint64 `json:"instrs"`
		ChecksumOK bool   `json:"checksum_ok"`
	}
	if err := json.Unmarshal(rep.summary, &sum); err != nil {
		return rep, fmt.Errorf("job %s summary.json: %w", v.ID, err)
	}
	if !sum.ChecksumOK {
		return rep, fmt.Errorf("job %s summary.json has checksum_ok false", v.ID)
	}
	rep.instrs = sum.Instrs
	return rep, nil
}

// counters parses the daemon's /metrics text (serve.Server.Metrics)
// into name → value; histograms are skipped.
func (d *daemon) counters() map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(d.srv.Metrics(), "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "counter" {
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[1]] = v
			}
		}
	}
	return out
}

// pass is one open-loop pass: the requests, their timings and replies.
type pass struct {
	reqs    []*serve.Request
	shots   []shot
	replies []reply
	wall    time.Duration // first due time to last reply
	before  map[string]float64
	after   map[string]float64
	mem     [2]runtime.MemStats
}

// delta is how much a daemon counter grew during the pass.
func (p *pass) delta(name string) float64 { return p.after[name] - p.before[name] }

// run sends reqs on the open-loop schedule over conns connections. With
// a tracer, each request gets a root span from its due time with the
// client calls and the daemon's own job timestamps beneath it.
func (d *daemon) run(reqs []*serve.Request, rate float64, conns int, tr *tracer, firstReq int) *pass {
	p := &pass{reqs: reqs, replies: make([]reply, len(reqs)), before: d.counters()}
	runtime.ReadMemStats(&p.mem[0])
	p.shots = openLoop(len(reqs), rate, conns, func(i int, due time.Time) error {
		rep, err := d.call(reqs[i])
		p.replies[i] = rep
		if tr != nil {
			d.traceRequest(tr, firstReq+i, due, rep)
		}
		return err
	})
	for _, s := range p.shots {
		p.wall = max(p.wall, s.Done)
	}
	runtime.ReadMemStats(&p.mem[1])
	p.after = d.counters()
	return p
}

// traceRequest records one request's spans: the generator's wait, the
// submit and fetch calls, and, inside the submit, the daemon's queue
// wait, execution (serve.ExecuteWarm) and settle (cache write and
// terminal bookkeeping) read from its Job record.
func (d *daemon) traceRequest(tr *tracer, req int, due time.Time, rep reply) {
	end := time.Now()
	root := tr.add("loadgen.request", 0, req, due, end)
	sub := tr.add("http.submit", root, req, rep.sent, rep.subDone)
	if !rep.subDone.IsZero() {
		tr.add("http.fetch", root, req, rep.subDone, end)
	}
	if rep.view == nil {
		return
	}
	j, ok := d.srv.Job(rep.view.ID)
	if !ok {
		return
	}
	<-j.Done()
	if j.Cached {
		return
	}
	execEnd := j.Started.Add(j.Wall)
	tr.add("serve.queue_wait", sub, req, j.Created, j.Started)
	tr.add("serve.exec", sub, req, j.Started, execEnd)
	tr.add("serve.settle", sub, req, execEnd, j.Finished)
}

// check fails the run for every request that errored, and counts them.
func (p *pass) check(r *result, wantCached bool) {
	for i, s := range p.shots {
		r.attempted++
		if s.Err != nil {
			r.failed++
			r.check(false, "request %d: %v", i, s.Err)
			continue
		}
		if v := p.replies[i].view; v.Cached != wantCached {
			r.failed++
			r.check(false, "request %d: job %s cached=%t, want %t", i, v.ID, v.Cached, wantCached)
		}
	}
}

// endToEnd sets the end-to-end metrics of an open-loop pass.
func (p *pass) endToEnd(r *result) {
	var lat, lag []float64
	var instrs uint64
	for i, s := range p.shots {
		lag = append(lag, ms(s.lag()))
		if s.Err == nil {
			lat = append(lat, ms(s.latency()))
			instrs += p.replies[i].instrs
		}
	}
	r.set("jobs_per_s", float64(len(lat))/p.wall.Seconds())
	setLatency(r, lat)
	r.set("sim_mips", float64(instrs)/p.wall.Seconds()/1e6)
	fmt.Printf("summary.json instrs summed over the pass: %d\n", instrs)
	v, _, _, _ := segmentedTail(lag, segment, minBeyond)
	r.notes["latency_tail_ms"] += fmt.Sprintf("; generator lag at the same tail %.3f ms", v)
}

// daemonLayers sets the per-layer metrics read from the daemon's own
// counters and job records over a traced pass.
func (p *pass) daemonLayers(r *result, d *daemon) {
	var wait, exec, overhead []float64
	done := 0.0
	for _, rep := range p.replies {
		if rep.view == nil {
			continue
		}
		j, ok := d.srv.Job(rep.view.ID)
		if !ok {
			continue
		}
		<-j.Done()
		done++
		client := rep.subDone.Sub(rep.sent)
		overhead = append(overhead, ms(client-j.Finished.Sub(j.Created)))
		if !j.Cached {
			wait = append(wait, ms(j.Started.Sub(j.Created)))
			exec = append(exec, ms(j.Wall))
		}
	}
	alloc, gcs := memDelta(&p.mem[0], &p.mem[1])
	r.set("serve.queue_wait_ms", median(wait))
	r.set("serve.exec_ms", median(exec))
	r.set("http.overhead_ms", median(overhead))
	r.notes["http.overhead_ms"] = "submit reply time minus the job's Finished-Created"
	r.set("host.alloc_mb_per_job", ratio(alloc, done))
	r.set("host.gc_cycles_per_job", ratio(float64(gcs), done))
	r.set("journal.appends_per_job", ratio(p.delta("serve.journal.appends"), done))
	hits, misses := p.delta("serve.cache.hits"), p.delta("serve.cache.misses")
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("workloads.warm_hit_ratio", ratio(p.delta("serve.warm.forks"), p.delta("serve.warm.prepares")))
	r.notes["workloads.warm_hit_ratio"] = "forks per capture"
	r.set("serve.rejected", p.delta("serve.rejected.queue_full")+p.delta("serve.rejected.draining")+
		p.delta("serve.rejected.over_budget")+p.delta("serve.pressure.sheds"))
	r.set("serve.retries", p.delta("serve.jobs.retries"))
	var lag []float64
	for _, s := range p.shots {
		lag = append(lag, ms(s.lag()))
	}
	v, pct, segs, _ := segmentedTail(lag, segment, minBeyond)
	r.set("loadgen.lag_tail_ms", v)
	r.notes["loadgen.lag_tail_ms"] = fmt.Sprintf("p%.1f of %d sends, %d segment(s)", pct, len(lag), segs)
}

// latencies returns the pass's successful request latencies in ms.
func (p *pass) latencies() []float64 {
	var lat []float64
	for _, s := range p.shots {
		if s.Err == nil {
			lat = append(lat, ms(s.latency()))
		}
	}
	return lat
}

// missReq is one serve_miss request. Requests of one group share app,
// topology and signal cost, so the warm pool keys them alike; the
// group's first request prepares cold and captures the image, a second
// one, under the other ring policy, forks it.
type missReq struct {
	req   *serve.Request
	group int
	cold  bool
}

// missStream builds the seeded request stream. It is made of blocks of
// five: three new groups, each opened by a cold request, and a warm
// follower for two of them, shuffled with each follower kept after its
// group's cold request. Groups walk through the job mix in seeded
// rounds, and every group has its own signal cost counting up from
// signal, so no two requests share a cache key.
func missStream(seed uint64, n int, signal uint64) []missReq {
	m := newMix(seed)
	rng := rand.New(rand.NewPCG(seed, 0x6d697373))
	policies := []string{core.RingSuspendAll.String(), core.RingMonitorCR.String()}
	var out []missReq
	for g := 0; len(out) < n; g += 3 {
		var block []missReq
		for k := 0; k < 3; k++ {
			c, sig, pol := m.job(g+k), signal+uint64(g+k), rng.IntN(2)
			block = append(block, missReq{req: runRequest(c, sig, policies[pol]), group: g + k, cold: true})
			if k < 2 {
				block = append(block, missReq{req: runRequest(c, sig, policies[1-pol]), group: g + k})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			for j := i + 1; j < len(block); j++ {
				if block[j].cold && block[j].group == block[i].group && !block[i].cold {
					block[i], block[j] = block[j], block[i]
				}
			}
		}
		out = append(out, block...)
	}
	return out[:n]
}

// runRequest is a test-size run request for c.
func runRequest(c combo, signal uint64, policy string) *serve.Request {
	return &serve.Request{Kind: serve.KindRun, App: c.app, Mode: c.mode, Topology: c.top,
		Size: "test", SignalCost: &signal, RingPolicy: policy}
}

func requestsOf(ms []missReq) []*serve.Request {
	out := make([]*serve.Request, len(ms))
	for i, m := range ms {
		out[i] = m.req
	}
	return out
}

// daemonSetup returns a set-up for setupMedian: start a daemon in a
// fresh directory, then run prime on it. *dp receives the daemon.
func daemonSetup(o options, dp **daemon, prime func(d *daemon) error) func() (func() error, error) {
	n := 0
	return func() (func() error, error) {
		n++
		d, err := startDaemon(filepath.Join(o.work, fmt.Sprintf("daemon%d", n)))
		if err != nil {
			return nil, err
		}
		if err := prime(d); err != nil {
			return nil, errors.Join(err, d.stop())
		}
		*dp = d
		return d.stop, nil
	}
}

// runServeMiss is the serve_miss workload: distinct test-size run
// requests at a fixed rate, every one a result-cache miss.
func runServeMiss(o options, r *result) error {
	var d *daemon
	setup, teardown, err := setupMedian(setupReps, daemonSetup(o, &d, func(d *daemon) error {
		// Warm-up: two blocks of five, the same for every seed, in a
		// signal range the measured stream never uses, so the HTTP,
		// cache, journal and warm-pool paths have all run.
		for _, m := range missStream(0, 10, warmupSignal) {
			if _, err := d.call(m.req); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	err = serveMiss(o, r, d)
	return errors.Join(err, teardown())
}

func serveMiss(o options, r *result, d *daemon) error {
	n := int(missRate * o.seconds)
	stream := missStream(o.seed, n, measuredSignal)
	if !o.trace {
		meter := startRSSMeter()
		p := d.run(requestsOf(stream), missRate, o.conns, nil, 0)
		setRSS(r, meter)
		p.check(r, false)
		p.endToEnd(r)
		return checkSampledMiss(r, d, p, o.seed)
	}
	half := n / 2 / 5 * 5 // a block boundary, so every follower's cold request is replayed too
	plain := d.run(requestsOf(stream[:half]), missRate, o.conns, nil, 0)
	tr := newTracer()
	traced := d.run(requestsOf(stream[half:]), missRate, o.conns, tr, half)
	plain.check(r, false)
	traced.check(r, false)
	if err := checkSampledMiss(r, d, traced, o.seed); err != nil {
		return err
	}
	zeroLayers(r)
	traced.daemonLayers(r, d)
	setTraceOverhead(r, plain, traced)
	if err := replayMisses(r, tr, o, d, stream[half:], traced, half); err != nil {
		return err
	}
	spans := tr.all()
	printLayerTable(os.Stdout, "serve_miss per-layer self time (daemon pass, then replay)", spans)
	return writeSpans(filepath.Join(o.work, "..", fmt.Sprintf("spans-serve_miss-%d.json", o.seed)), spans)
}

// setTraceOverhead reports the traced pass's median latency minus the
// untraced pass's.
func setTraceOverhead(r *result, plain, traced *pass) {
	a, b := median(plain.latencies()), median(traced.latencies())
	r.set("trace.overhead_ms", b-a)
	r.notes["trace.overhead_ms"] = fmt.Sprintf("traced minus untraced median latency (untraced %.3f ms)", a)
}

// checkSampledMiss compares every artifact of one seeded sample of the
// pass's jobs, fetched over HTTP, with a cold serve.Execute of the same
// request.
func checkSampledMiss(r *result, d *daemon, p *pass, seed uint64) error {
	i := rand.New(rand.NewPCG(seed, 0x73616d70)).IntN(len(p.reqs))
	v := p.replies[i].view
	if v == nil {
		r.check(false, "sampled request %d has no reply", i)
		return nil
	}
	c, err := p.reqs[i].Canonicalize()
	if err != nil {
		return err
	}
	want, _, err := serve.Execute(context.Background(), c)
	if err != nil {
		return fmt.Errorf("cold execute of sampled request: %w", err)
	}
	r.check(len(v.Artifacts) == len(want), "sampled job %s has %d artifacts, cold execute %d", v.ID, len(v.Artifacts), len(want))
	for _, name := range v.Artifacts {
		got, err := d.client.Artifact(context.Background(), v.ID, name)
		if err != nil {
			return err
		}
		r.check(bytes.Equal(got, want[name]), "sampled job %s artifact %s differs from a cold serve.Execute", v.ID, name)
	}
	fmt.Printf("sampled job %s: %d artifacts byte-equal to a cold serve.Execute\n", v.ID, len(v.Artifacts))
	return nil
}

// runServeHit is the serve_hit workload: requests drawn from a key set
// filled during set-up, at a fixed rate, every one a result-cache hit.
func runServeHit(o options, r *result) error {
	// One P: a hit is a fraction of a millisecond of CPU work, and with
	// the client and the daemon on separate CPUs its latency and tail
	// vary run to run with the cost of waking the other CPU, which no
	// change to the hit path can move. The daemon's worker count is 1
	// either way on a 2-CPU host.
	runtime.GOMAXPROCS(1)
	keys := hitKeySet(o.seed)
	filled := make([][]byte, len(keys))
	var d *daemon
	setup, teardown, err := setupMedian(setupReps, daemonSetup(o, &d, func(d *daemon) error {
		for i, req := range keys {
			rep, err := d.call(req)
			if err != nil {
				return fmt.Errorf("filling key %d: %w", i, err)
			}
			filled[i] = rep.summary
		}
		// Warm-up: a closed loop of hits over the key set.
		for i := 0; i < 200; i++ {
			if _, err := d.call(keys[i%len(keys)]); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	err = serveHit(o, r, d, keys, filled)
	return errors.Join(err, teardown())
}

// hitKeySet is serve_hit's key set: both ring policies for each combo
// of the job mix, 24 keys, with the combos in seeded order and a
// signal cost per combo. Every seed gets the same jobs under different
// keys.
func hitKeySet(seed uint64) []*serve.Request {
	m := newMix(seed)
	var keys []*serve.Request
	for g := range m.all {
		c := m.job(g)
		for _, pol := range []core.RingPolicy{core.RingSuspendAll, core.RingMonitorCR} {
			keys = append(keys, runRequest(c, measuredSignal+uint64(g), pol.String()))
		}
	}
	return keys
}

// hitStream draws n requests from the key set in seeded rounds, each a
// permutation of every key, so each key is drawn equally often; pick[i]
// is request i's key index.
func hitStream(seed uint64, keys []*serve.Request, n int) (reqs []*serve.Request, pick []int) {
	rng := rand.New(rand.NewPCG(seed, 0x68697473))
	for len(reqs) < n {
		for _, k := range rng.Perm(len(keys)) {
			reqs, pick = append(reqs, keys[k]), append(pick, k)
		}
	}
	return reqs[:n], pick[:n]
}

func serveHit(o options, r *result, d *daemon, keys []*serve.Request, filled [][]byte) error {
	n := int(hitRate * o.seconds)
	reqs, pick := hitStream(o.seed, keys, n)
	checkBytes := func(p *pass, from int) {
		for i, rep := range p.replies {
			if p.shots[i].Err == nil {
				r.check(bytes.Equal(rep.summary, filled[pick[from+i]]),
					"hit %d: summary.json differs from the bytes captured when key %d was filled", from+i, pick[from+i])
			}
		}
		hits, misses := p.delta("serve.cache.hits"), p.delta("serve.cache.misses")
		r.check(ratio(hits, hits+misses) >= 0.99, "cache hit ratio %.4f below 0.99", ratio(hits, hits+misses))
	}
	if !o.trace {
		meter := startRSSMeter()
		p := d.run(reqs, hitRate, o.conns, nil, 0)
		setRSS(r, meter)
		p.check(r, true)
		checkBytes(p, 0)
		p.endToEnd(r)
		return nil
	}
	half := n / 2
	plain := d.run(reqs[:half], hitRate, o.conns, nil, 0)
	tr := newTracer()
	traced := d.run(reqs[half:], hitRate, o.conns, tr, half)
	for _, p := range []*pass{plain, traced} {
		p.check(r, true)
	}
	checkBytes(plain, 0)
	checkBytes(traced, half)
	zeroLayers(r)
	traced.daemonLayers(r, d)
	setTraceOverhead(r, plain, traced)
	replayAdmits(r, tr, d.srv.Cache(), reqs[half:], half)
	spans := tr.all()
	printLayerTable(os.Stdout, "serve_hit per-layer self time (daemon pass, then replay)", spans)
	return writeSpans(filepath.Join(o.work, "..", fmt.Sprintf("spans-serve_hit-%d.json", o.seed)), spans)
}
