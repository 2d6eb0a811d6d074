package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"misp/internal/core"
	"misp/internal/journal"
	"misp/internal/serve"
	"misp/internal/snap"
	"misp/internal/workloads"
)

// The replay re-issues a traced pass's requests, in the order the
// daemon's worker started them, directly through the exported calls
// each layer offers, so each layer's time is measured on its own.

// runConfig rebuilds the machine configuration the daemon derives from
// a canonical run request. A mismatch shows as an instruction count
// that differs from the daemon's summary.json, which the replay checks.
func runConfig(c *serve.Request) (*workloads.Workload, combo, core.Config, error) {
	w, err := workloads.ByName(c.App)
	if err != nil {
		return nil, combo{}, core.Config{}, err
	}
	cfg := workloads.DefaultConfig(core.Topology(c.Topology))
	cfg.SignalCost = *c.SignalCost
	cfg.RingPolicy = core.RingSuspendAll
	if c.RingPolicy == core.RingMonitorCR.String() {
		cfg.RingPolicy = core.RingMonitorCR
	}
	return w, combo{c.App, c.Mode, c.Topology}, cfg, nil
}

// admit times serve's admission calls for one request:
// Request.Canonicalize and Key, then Cache.Get.
func admit(tr *tracer, cache *serve.Cache, req *serve.Request, parent, id int) (c *serve.Request, key string, hit bool, admitDur, getDur time.Duration, err error) {
	t0 := time.Now()
	a := tr.begin("serve.admit", parent, id)
	ck := tr.begin("serve.canonicalize_key", a.id, id)
	c, err = req.Canonicalize()
	if err == nil {
		key = c.Key()
	}
	ck.end()
	if err != nil {
		a.end()
		return nil, "", false, 0, 0, err
	}
	g := tr.begin("serve.cache_get", a.id, id)
	t1 := time.Now()
	_, hit = cache.Get(key)
	getDur = time.Since(t1)
	g.end()
	a.end()
	return c, key, hit, time.Since(t0), getDur, nil
}

// replayAdmits replays serve_hit's admissions against the daemon's own
// cache, where every key is present.
func replayAdmits(r *result, tr *tracer, cache *serve.Cache, reqs []*serve.Request, first int) {
	var adm, get []float64
	for i, req := range reqs {
		root := tr.begin("replay.hit", 0, first+i)
		_, _, hit, a, g, err := admit(tr, cache, req, root.id, first+i)
		root.end()
		if err != nil {
			r.check(false, "replay %d: %v", first+i, err)
			continue
		}
		r.check(hit, "replay %d: cache miss on a filled key", first+i)
		adm, get = append(adm, us(a)), append(get, us(g))
	}
	r.set("serve.admit_us", median(adm))
	r.set("serve.cache_get_us", median(get))
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// replayMisses replays serve_miss's traced pass. Per request, as the
// daemon's worker would: admission; a cold workloads.PrepareFlags plus
// snap.Capture for a group's first request, or Snapshot.Fork for its
// follower; Prepared.RunCtx; the artifact build; Cache.Put with fsync;
// and the three journal appends a miss costs (accepted, started, done).
// The artifact build has no exported entry point, so it is estimated as
// serve.ExecuteWarm minus a paired WarmPool.Prepare plus RunCtx of the
// same request, both forking one image.
func replayMisses(r *result, tr *tracer, o options, d *daemon, stream []missReq, p *pass, first int) error {
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	cache, err := serve.NewCache(filepath.Join(o.work, "replay-cache"))
	if err != nil {
		return err
	}
	jnl, _, err := journal.Open(filepath.Join(o.work, "replay.wal"))
	if err != nil {
		return err
	}
	defer jnl.Close()

	// Worker order: by the daemon's start time for each job.
	jobs := make([]*serve.Job, len(stream))
	order := make([]int, 0, len(stream))
	for i, rep := range p.replies {
		if rep.view == nil {
			continue
		}
		if j, ok := d.srv.Job(rep.view.ID); ok {
			<-j.Done()
			jobs[i] = j
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return jobs[a].Started.Compare(jobs[b].Started) })

	images := map[int]*snap.Snapshot{}
	pools := map[int]*workloads.WarmPool{}
	var (
		run, prep, capt, fork, adm, get, art, put, app []float64
		accounted, execs                               []float64
		imgBytes, artBytes                             []float64
		runTotal                                       time.Duration
		instrs, cycles                                 uint64
	)
	for _, i := range order {
		id, m := first+i, stream[i]
		root := tr.begin("replay.job", 0, id)
		c, key, hit, a, g, err := admit(tr, cache, m.req, root.id, id)
		if err != nil {
			return fmt.Errorf("replay %d: %w", id, err)
		}
		r.check(!hit, "replay %d: cache hit on a fresh key", id)
		adm, get = append(adm, us(a)), append(get, us(g))
		w, cb, cfg, err := runConfig(c)
		if err != nil {
			return err
		}

		var pr *workloads.Prepared
		var prepDur time.Duration
		if m.cold {
			sp := tr.begin("workloads.prepare_cold", root.id, id)
			dp, err := timed(func() (err error) {
				pr, err = workloads.PrepareFlags(w, cb.libMode(), cfg, workloads.SizeTest, 0)
				return err
			})
			sp.end()
			if err != nil {
				return fmt.Errorf("replay %d prepare: %w", id, err)
			}
			sc := tr.begin("snap.capture", root.id, id)
			var img *snap.Snapshot
			dc, err := timed(func() (err error) {
				img, err = snap.Capture(pr.Machine, pr.Kernel)
				return err
			})
			sc.end()
			if err != nil {
				return fmt.Errorf("replay %d capture: %w", id, err)
			}
			images[m.group] = img
			prep, capt = append(prep, ms(dp)), append(capt, ms(dc))
			imgBytes = append(imgBytes, float64(img.Size()))
			prepDur = dp + dc
		} else {
			img := images[m.group]
			if img == nil {
				return fmt.Errorf("replay %d: follower of group %d has no image", id, m.group)
			}
			sf := tr.begin("snap.fork", root.id, id)
			df, err := timed(func() error {
				fm, fk, err := img.Fork(func(fc *core.Config) { *fc = cfg })
				if err != nil {
					return err
				}
				pr, err = workloads.Resume(w, cb.libMode(), fm, fk)
				return err
			})
			sf.end()
			if err != nil {
				return fmt.Errorf("replay %d fork: %w", id, err)
			}
			delete(images, m.group)
			fork = append(fork, ms(df))
			prepDur = df
		}

		sr := tr.begin("core.run", root.id, id)
		var res *workloads.RunResult
		dr, err := timed(func() (err error) {
			res, err = pr.RunCtx(ctx)
			return err
		})
		sr.end()
		root.end()
		if err != nil {
			return fmt.Errorf("replay %d run: %w", id, err)
		}
		r.check(res.Machine.Steps == p.replies[i].instrs,
			"replay %d: %d instructions, the daemon's summary.json says %d", id, res.Machine.Steps, p.replies[i].instrs)
		run = append(run, ms(dr))
		runTotal += dr
		instrs += res.Machine.Steps
		cycles += res.Machine.MaxClock()

		arts, dArt, err := artifactPair(ctx, tr, pools, m, c, w, cb, cfg, id)
		if err != nil {
			return fmt.Errorf("replay %d artifacts: %w", id, err)
		}
		art = append(art, ms(dArt))
		var nb int
		for _, b := range arts {
			nb += len(b)
		}
		artBytes = append(artBytes, float64(nb))
		accounted = append(accounted, ms(prepDur+dr+dArt))
		execs = append(execs, ms(jobs[i].Wall))

		ps := tr.begin("replay.persist", 0, id)
		cp := tr.begin("serve.cache_put", ps.id, id)
		dp, err := timed(func() error { return cache.Put(key, arts) })
		cp.end()
		if err != nil {
			ps.end()
			return fmt.Errorf("replay %d cache put: %w", id, err)
		}
		put = append(put, ms(dp))
		for _, rec := range journalRecords(jobs[i].ID, key, c) {
			ja := tr.begin("journal.append", ps.id, id)
			da, err := timed(func() error { return jnl.Append(rec) })
			ja.end()
			if err != nil {
				ps.end()
				return fmt.Errorf("replay %d journal: %w", id, err)
			}
			app = append(app, us(da))
		}
		ps.end()
	}

	r.set("core.run_ms", median(run))
	r.set("core.host_ns_per_instr", ratio(float64(runTotal.Nanoseconds()), float64(instrs)))
	r.set("core.instrs", float64(instrs))
	r.set("core.cycles", float64(cycles))
	r.notes["core.instrs"] = fmt.Sprintf("sum over the %d replayed requests", len(order))
	r.set("workloads.prepare_cold_ms", median(prep))
	r.set("snap.capture_ms", median(capt))
	r.set("snap.image_bytes", mean(imgBytes))
	r.set("snap.fork_ms", median(fork))
	r.set("serve.admit_us", median(adm))
	r.set("serve.cache_get_us", median(get))
	r.set("serve.artifact_ms", median(art))
	r.notes["serve.artifact_ms"] = "serve.ExecuteWarm minus a paired WarmPool.Prepare+RunCtx"
	r.set("serve.artifact_bytes", mean(artBytes))
	r.set("serve.cache_put_ms", median(put))
	r.set("journal.append_us", median(app))

	// The replayed prepare/capture/fork, run and artifact times should
	// account for the daemon's own execution time of the same jobs.
	share := ratio(mean(accounted), mean(execs))
	fmt.Printf("replay accounts for %.1f%% of the daemon's mean serve.exec (%.2f of %.2f ms)\n",
		100*share, mean(accounted), mean(execs))
	r.check(share >= minAccounted && share <= maxAccounted,
		"replayed layer times account for %.0f%% of serve.exec_ms, outside [%.0f%%, %.0f%%]",
		100*share, 100*minAccounted, 100*maxAccounted)
	return nil
}

// The accounting check's band: the replay runs the same calls as the
// daemon's worker but on its own, without HTTP clients beside it.
const minAccounted, maxAccounted = 0.6, 1.5

// artifactPair estimates one request's artifact-build time as
// serve.ExecuteWarm minus WarmPool.Prepare plus RunCtx, both forking the
// group's image from a pool primed, untimed, on the group's first
// request. The two calls alternate order between requests. It returns
// ExecuteWarm's artifacts.
func artifactPair(ctx context.Context, tr *tracer, pools map[int]*workloads.WarmPool, m missReq,
	c *serve.Request, w *workloads.Workload, cb combo, cfg core.Config, id int) (serve.Artifacts, time.Duration, error) {
	wp := pools[m.group]
	if wp == nil {
		wp = workloads.NewWarmPool()
		if _, err := wp.Prepare(w, cb.libMode(), cfg, workloads.SizeTest, 0); err != nil {
			return nil, 0, err
		}
		pools[m.group] = wp
	}
	if !m.cold {
		defer delete(pools, m.group)
	}
	root := tr.begin("replay.artifact_pair", 0, id)
	defer root.end()
	var arts serve.Artifacts
	plain := func() (time.Duration, error) {
		s := tr.begin("pair.prepare_run", root.id, id)
		defer s.end()
		return timed(func() error {
			pr, err := wp.Prepare(w, cb.libMode(), cfg, workloads.SizeTest, 0)
			if err != nil {
				return err
			}
			_, err = pr.RunCtx(ctx)
			return err
		})
	}
	exec := func() (time.Duration, error) {
		s := tr.begin("serve.execute_warm", root.id, id)
		defer s.end()
		return timed(func() (err error) {
			arts, _, err = serve.ExecuteWarm(ctx, c, wp)
			return err
		})
	}
	var dp, de time.Duration
	var err1, err2 error
	if id%2 == 0 {
		dp, err1 = plain()
		de, err2 = exec()
	} else {
		de, err2 = exec()
		dp, err1 = plain()
	}
	if err1 != nil || err2 != nil {
		return nil, 0, fmt.Errorf("%v %v", err1, err2)
	}
	return arts, de - dp, nil
}

// journalRecords are payloads shaped like the daemon's accepted,
// started and done records for one job.
func journalRecords(id, key string, c *serve.Request) [][]byte {
	recs := []map[string]any{
		{"op": "accepted", "id": id, "key": key, "req": c},
		{"op": "started", "id": id, "attempt": 1},
		{"op": "done", "id": id},
	}
	out := make([][]byte, len(recs))
	for i, rec := range recs {
		out[i], _ = json.Marshal(rec) // maps of strings, ints and a Request always marshal
	}
	return out
}
