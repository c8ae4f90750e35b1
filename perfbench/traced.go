package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"ansmet"
	"ansmet/internal/core"
	"ansmet/internal/engine"
	"ansmet/internal/hnsw"
	"ansmet/internal/trace"
	"ansmet/internal/vecmath"
	"ansmet/internal/wal"
)

const (
	// deepEvery: every deepEvery-th traced search also runs the exact
	// scan and the tiered pipeline below Database.
	deepEvery = 4
	// simTraces caps the walks core.Replay times.
	simTraces = 256
	// sideWrites is the number of writes in the write-layer probe of the
	// read-only workloads.
	sideWrites = 128
	// walAppends is the number of bare journal appends timed.
	walAppends = 200
)

// below holds the layer calls replayed under Database and their counts.
type below struct {
	db      *ansmet.Database
	sys     *core.System
	batch   int
	et      *core.ETEngine
	m       *meter
	exact   *engine.Exact
	etDst   []ansmet.Neighbor
	exDst   []ansmet.Neighbor
	dst     []ansmet.Neighbor
	traces  []*trace.Query
	walks   int64
	hops    int64
	differ  int64   // walks whose ET and exact-engine neighbours differ
	etNs    float64 // timed replays of the walks' comparisons
	exNs    float64
	scans   int64
	scanLns int64
	tiered  int64
	pool    int64
	bound   int64
	rerank  int64
}

// replay runs one query through the public layer functions below
// Database, each in its own span under a "replay" root of request req.
func (b *below) replay(tr *tracer, req int64, q []float32, deep bool) error {
	root := tr.open("replay", 0, req)
	defer root.end()
	ctx := root.context(context.Background())
	var err error
	o := tr.begin(ctx, "ansmet.SearchCtxInto")
	b.dst, err = b.db.SearchCtxInto(ctx, q, k, ef, b.dst)
	o.end()
	if err != nil {
		return err
	}
	b.m.calls = b.m.calls[:0]
	rec := &trace.Query{}
	o = tr.begin(ctx, "hnsw.SearchBatchedInto")
	b.etDst = b.sys.Index.SearchBatchedInto(q, k, ef, b.batch, b.m, rec, b.etDst)
	o.end()
	o = tr.begin(ctx, "hnsw.SearchBatchedInto.exact")
	b.exDst = b.sys.Index.SearchBatchedInto(q, k, ef, b.batch, b.exact, nil, b.exDst)
	o.end()
	b.walks++
	b.hops += int64(rec.NumHops())
	if !slices.EqualFunc(b.etDst, b.exDst, func(x, y ansmet.Neighbor) bool { return x.ID == y.ID }) {
		b.differ++
	}
	if len(b.traces) < simTraces {
		b.traces = append(b.traces, rec)
	}
	b.etNs += float64(replayCalls(b.et, q, b.m.calls))
	b.exNs += float64(replayCalls(b.exact, q, b.m.calls))
	if !deep {
		return nil
	}
	o = tr.begin(ctx, "core.ExactKNNCtx")
	_, lines, _ := b.et.ExactKNNCtx(nil, q, k)
	o.end()
	b.scans++
	b.scanLns += int64(lines)
	o = tr.begin(ctx, "ansmet.TieredSearchCtxInto")
	_, st, err := b.db.TieredSearchCtxInto(ctx, q, k, 1, nil)
	o.end()
	if err != nil {
		return err
	}
	b.tiered++
	b.pool += int64(st.Pool)
	b.bound += int64(st.BoundLines)
	b.rerank += int64(st.RerankLines)
	return nil
}

// writes books the write-layer spans: which requests' deletes ran a
// deferred repair batch, and the journal growth.
type writes struct {
	repairs  map[int64]bool
	n        int64
	walBytes int64
}

// traced is the traced run. It sends blocks of requests twice, first to an
// untraced server and then to a traced one over the same database, so the
// tracing overhead is the paired latency difference. After each traced
// search it replays the query through the layers below Database; on the
// ingest workload each traced search is followed by the next write.
func (r *run) traced() error {
	in := r.inputs()
	var truth [][]nb
	if r.writeRate == 0 {
		truth = in.ref.truths(in.queries, k, nil)
	}
	tr := &tracer{t0: time.Now()}
	p := in.prof

	// Set-up, layer by layer, then the database the servers share.
	o := tr.open("hnsw.Build", 0, 0)
	ix, err := hnsw.Build(in.base, p.Metric, hnsw.Config{M: 16, MaxDegree: 16, EfConstruction: efConstruction, Seed: buildSeed})
	o.end()
	if err != nil {
		return err
	}
	cfg := core.DefaultSystemConfig(core.NDPETOpt)
	cfg.Seed = buildSeed
	o = tr.open("core.NewSystem", 0, 0)
	_, err = core.NewSystem(in.base, p.Elem, p.Metric, ix, cfg)
	o.end()
	if err != nil {
		return err
	}
	o = tr.open("setup", 0, 0)
	db, err := r.setup(in)
	o.end()
	if err != nil {
		return err
	}
	defer db.Close()
	if r.writeRate == 0 {
		if err := db.SaveFile(r.snapshot()); err != nil {
			return err
		}
	}
	fi, err := os.Stat(r.snapshot())
	if err != nil {
		return err
	}
	r.set("persist.snapshot_bytes_per_vector", "bytes", float64(fi.Size())/float64(r.n))

	plain, err := startServer(db, nil)
	if err != nil {
		return err
	}
	defer plain.stop()
	srv, err := startServer(db, tr)
	if err != nil {
		return err
	}
	defer srv.stop()
	pc, tc := newClient(plain.url), newClient(srv.url)
	defer pc.close()
	defer tc.close()

	sys := db.System()
	worker := sys.NewWorkerEngine()
	et, ok := worker.(*core.ETEngine)
	if !ok {
		return errors.New("the worker engine is not an early-termination engine")
	}
	b := &below{db: db, sys: sys, batch: max(sys.Cfg.BeamBatch, 1), et: et,
		m: &meter{Engine: worker, full: worker.LinesPerVector()}, exact: engine.NewExact(in.ref.vecs, p.Metric, p.Elem)}
	w := writes{repairs: map[int64]bool{}}
	var ing *ingest
	var walStart int64
	if r.writeRate > 0 {
		ing = &ingest{deleted: make([]atomic.Int64, len(in.ref.vecs))}
		ing.issued.Store(uint32(r.n))
		walStart = fileSize(ansmet.WALName(r.snapshot()))
	}

	var ph phase
	var diffs []float64
	var req int64
	block := 8 * len(r.modes)
	start := time.Now()
	dur := time.Duration(r.seconds * float64(time.Second))
	for next := 0; time.Since(start) < dur; {
		// As in the timed phase, each query goes through every mode in turn.
		qs := make([]int, block)
		plainLat := make([]time.Duration, block)
		for j := range qs {
			qs[j] = next
			next++
			qi, mode := (qs[j]/len(r.modes))%len(in.queries), r.modes[qs[j]%len(r.modes)]
			res, lat, err := pc.search(searchBody(in.queries[qi], k, ef, mode), mode, nil)
			r.tracedCheck(&ph, in, truth, ing, qi, mode, res, lat, err)
			plainLat[j] = lat
		}
		for j, x := range qs {
			qi, mode := (x/len(r.modes))%len(in.queries), r.modes[x%len(r.modes)]
			body := searchBody(in.queries[qi], k, ef, mode)
			req++
			cs, hdr := tr.clientSpan("http.search", req)
			res, lat, err := tc.search(body, mode, hdr)
			cs.end()
			r.tracedCheck(&ph, in, truth, ing, qi, mode, res, lat, err)
			diffs = append(diffs, float64(lat-plainLat[j]))
			if x%len(r.modes) != 0 {
				continue
			}
			if err := b.replay(tr, req, in.queries[qi], b.walks%deepEvery == 0); err != nil {
				return err
			}
			if ing != nil && int(w.n) < len(in.ops) {
				req++
				before := db.Stats().RepairBatches
				ws, hdr := tr.clientSpan("http.write", req)
				err := r.applyWrite(tc, in, ing, int(w.n), hdr, &ph)
				ws.end()
				if err != nil {
					return err
				}
				w.n++
				if db.Stats().RepairBatches > before {
					w.repairs[req] = true
				}
			}
		}
	}
	r.out.Attempted, r.out.Failed = ph.attempted, ph.failed
	if ph.err != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed request: %v\n", r.name, ph.err)
	}
	if ing != nil {
		w.walBytes = fileSize(ansmet.WALName(r.snapshot())) - walStart
	} else if err := r.sideWrites(tr, in, &w, &req); err != nil {
		return err
	}

	o = tr.open("core.Replay", 0, 0)
	rep := core.Replay(sys, b.traces)
	o.end()
	appendNs, err := r.walAppends(tr, p.Dim)
	if err != nil {
		return err
	}
	kernelNs := kernel(in)

	ls := tr.stats()
	us := func(name string) float64 { return mean(ls.dur[name]) / 1e3 }
	deletes, repairs := w.split(tr)
	calls := float64(max(b.m.n, 1))
	walks := float64(max(b.walks, 1))
	r.set("vecmath.kernel_ns", "ns/call", kernelNs)
	r.set("core.compare_ns", "ns/call", b.etNs/calls)
	r.set("core.exact_compare_ns", "ns/call", b.exNs/calls)
	r.set("core.compares_per_query", "count", float64(b.m.n)/walks)
	r.set("core.lines_per_compare", "lines", float64(b.m.lines)/calls)
	r.set("core.et_reject_ratio", "ratio", float64(b.m.early)/calls)
	r.set("core.et_exact_differ", "queries", float64(b.differ))
	r.set("hnsw.search_us", "us/query", us("hnsw.SearchBatchedInto"))
	r.set("hnsw.self_us", "us/query", us("hnsw.SearchBatchedInto")-float64(b.m.busy)/walks/1e3)
	r.set("hnsw.exact_engine_search_us", "us/query", us("hnsw.SearchBatchedInto.exact"))
	r.set("hnsw.hops_per_query", "count", float64(b.hops)/walks)
	r.set("hnsw.build_s", "s", mean(ls.dur["hnsw.Build"])/1e9)
	r.set("core.preprocess_s", "s", mean(ls.dur["core.NewSystem"])/1e9)
	r.set("core.exact_scan_ms", "ms", us("core.ExactKNNCtx")/1e3)
	r.set("core.exact_lines_per_query", "lines", float64(b.scanLns)/float64(max(b.scans, 1)))
	r.set("core.tiered_ms", "ms", us("ansmet.TieredSearchCtxInto")/1e3)
	tiered := float64(max(b.tiered, 1))
	r.set("core.tiered_pool", "ids", float64(b.pool)/tiered)
	r.set("core.tiered_bound_lines", "lines", float64(b.bound)/tiered)
	r.set("core.tiered_rerank_lines", "lines", float64(b.rerank)/tiered)
	r.set("ansmet.search_us", "us", us("ansmet.SearchCtxInto"))
	r.set("ansmet.add_us", "us", us("ansmet.Add"))
	r.set("ansmet.delete_us", "us", mean(deletes)/1e3)
	r.set("ansmet.repair_ms", "ms", mean(repairs)/1e6)
	r.set("ansmet.repair_batches", "count", float64(len(repairs)))
	r.set("serve.handler_us", "us", us("serve.Handler"))
	r.set("serve.self_us", "us", mean(ls.self["serve.Handler"])/1e3)
	r.set("http.self_us", "us", mean(ls.self["http.search"])/1e3)
	r.set("wal.append_us", "us", appendNs/1e3)
	r.set("wal.bytes_per_write", "bytes", float64(w.walBytes)/float64(max(w.n, 1)))
	r.set("sim.fetch_utilization", "ratio", rep.FetchUtilization())
	r.set("sim.modeled_latency_us", "us", rep.AvgLatencyNs()/1e3)
	r.set("trace.overhead_us", "us", median(diffs)/1e3)
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s; %d traced searches, %d writes\n",
		r.name, len(tr.spans), path, b.walks, w.n)
	return nil
}

// tracedCheck checks a traced-run reply like the timed phase does.
func (r *run) tracedCheck(ph *phase, in *inputs, truth [][]nb, ing *ingest, qi int, mode string, res []result, lat time.Duration, err error) {
	maxID := uint32(r.n)
	var t []nb
	if ing != nil {
		maxID = ing.issued.Load()
		r.checkAcked(ing, res, ing.acks.Load())
	} else {
		t = truth[qi]
	}
	r.searched(ph, in, qi, t, mode, res, lat, err, maxID)
}

// split separates the delete and update spans into those that ran a
// deferred repair batch and those that did not.
func (w *writes) split(tr *tracer) (plain, repair []float64) {
	for _, s := range tr.spans {
		d := float64(s.End - s.Start)
		switch {
		case s.Name != "ansmet.Delete" && s.Name != "ansmet.Update":
		case w.repairs[s.Req]:
			repair = append(repair, d)
		case s.Name == "ansmet.Delete":
			plain = append(plain, d)
		}
	}
	return plain, repair
}

// sideWrites probes the write layers on a read-only workload, since a
// traced run reports every per-layer metric: a journaled mutable copy of
// the workload's database takes alternating adds (of the run's query
// vectors) and deletes through the library, enough deletes for one repair
// batch at the default batch size.
func (r *run) sideWrites(tr *tracer, in *inputs, w *writes, req *int64) error {
	opts := r.options(in.prof)
	opts.Mutable = true
	db, err := ansmet.New(in.base, opts)
	if err != nil {
		return err
	}
	defer db.Close()
	snap := filepath.Join(r.dir, "side.snap")
	if err := db.SaveFile(snap); err != nil {
		return err
	}
	if err := db.AttachWAL(ansmet.WALName(snap)); err != nil {
		return err
	}
	walStart := fileSize(ansmet.WALName(snap))
	for i := 0; i < sideWrites; i++ {
		*req++
		root := tr.open("side.write", 0, *req)
		ctx := root.context(context.Background())
		before := db.Stats().RepairBatches
		if i%2 == 0 {
			o := tr.begin(ctx, "ansmet.Add")
			_, err = db.Add(in.sample[(i/2)%len(in.sample)])
			o.end()
		} else {
			o := tr.begin(ctx, "ansmet.Delete")
			err = db.Delete(uint32(i / 2))
			o.end()
		}
		root.end()
		if err != nil {
			return err
		}
		w.n++
		if db.Stats().RepairBatches > before {
			w.repairs[*req] = true
		}
	}
	w.walBytes = fileSize(ansmet.WALName(snap)) - walStart
	return nil
}

// walAppends times bare journal appends of an add record's size, fsync
// included, and returns the mean in nanoseconds.
func (r *run) walAppends(tr *tracer, dim int) (float64, error) {
	l, err := wal.Open(filepath.Join(r.dir, "probe.wal"), 0, nil)
	if err != nil {
		return 0, err
	}
	payload := make([]byte, 4+4*dim)
	var total time.Duration
	for i := 0; i < walAppends; i++ {
		o := tr.open("wal.Append", 0, 0)
		t0 := time.Now()
		_, err = l.Append(1, payload)
		total += time.Since(t0)
		o.end()
		if err != nil {
			l.Close()
			return 0, err
		}
	}
	return float64(total) / walAppends, l.Close()
}

// kernelSink keeps the kernel loop's result alive.
var kernelSink float64

// kernel times the profile's distance kernel on the workload's own
// queries and vectors, in nanoseconds per call.
func kernel(in *inputs) float64 {
	f := vecmath.SquaredL2
	if in.ref.ip {
		f = vecmath.Dot
	}
	calls := 20_000_000 / in.prof.Dim
	t0 := time.Now()
	var s float64
	for i := 0; i < calls; i++ {
		s += f(in.queries[i%len(in.queries)], in.base[(i*7919)%len(in.base)])
	}
	ns := float64(time.Since(t0)) / float64(calls)
	kernelSink = s
	return ns
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}
