package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ansmet"
	"ansmet/internal/dataset"
	"ansmet/internal/serve"
	"ansmet/internal/vecmath"
)

// Write operation kinds of the ingest workload.
const (
	opAdd = iota
	opDelete
	opUpdate
)

// op is one write of the ingest workload's seeded sequence.
type op struct {
	kind  int
	id    uint32 // delete or update target
	newID uint32 // id an add or update is assigned
	body  []byte // pre-encoded request
}

// inputs is everything a run generates from its seed before the program
// sees any of it.
type inputs struct {
	prof    dataset.Profile
	base    [][]float32 // the vectors the database is built from
	queries [][]float32 // the queries the clients send
	sample  [][]float32 // the workload's queries: the probes, then the rest in the seed's order
	ops     []op
	ref     *reference // over base plus every vector the ops add
}

// corpusSeed fixes each workload's vectors and queries. The run's seed
// orders the queries and draws the ingest workload's write sequence, so
// runs on different seeds differ in their requests but not in the
// database or the query set they measure.
const corpusSeed = 1

// inputs generates the run's data: the profile's vectors, its queries in
// a seeded order and, on the ingest workload, a seeded write sequence
// whose deletes and updates pick uniformly among the ids live at that
// point.
func (r *run) inputs() *inputs {
	in := &inputs{prof: dataset.ProfileByName(r.profile)}
	rng := rand.New(rand.NewSource(int64(r.seed)))
	writes := int(math.Ceil(r.writeRate * r.seconds))
	// Vector i of a profile does not depend on how many are drawn, so
	// every run builds the same population whatever its write sequence.
	ds := dataset.Generate(in.prof, r.n+writes, r.nq, corpusSeed)
	in.base = ds.Vectors[:r.n]
	// The first queries, which the route probes use, stay first. A
	// seeded sample of a larger pool, used before, moved the tail
	// latency with the share of costly queries it happened to draw.
	in.sample = append(in.sample, ds.Queries[:r.probes]...)
	for _, i := range rng.Perm(r.nq - r.probes) {
		in.sample = append(in.sample, ds.Queries[r.probes+i])
	}
	in.queries = in.sample
	if r.round > 0 {
		in.queries = nil
		for _, i := range rng.Perm(r.round) {
			in.queries = append(in.queries, ds.Queries[i])
		}
	}
	in.ref = &reference{ip: in.prof.Metric == vecmath.InnerProduct, vecs: ds.Vectors}
	live := make([]uint32, r.n)
	for i := range live {
		live[i] = uint32(i)
	}
	next := uint32(r.n)
	for i := 0; i < writes; i++ {
		var o op
		var req any
		// Two adds to one delete and one update, as in the chaos mutate
		// soak (cmd/ansmet-chaos).
		switch u := rng.Intn(4); {
		case u < 2:
			o = op{kind: opAdd, newID: next}
			next++
			live = append(live, o.newID)
			req = serve.UpsertRequest{Vector: ds.Vectors[o.newID]}
		case u == 2:
			j := rng.Intn(len(live))
			o = op{kind: opDelete, id: live[j]}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			req = serve.DeleteRequest{ID: &o.id}
		default:
			j := rng.Intn(len(live))
			o = op{kind: opUpdate, id: live[j], newID: next}
			next++
			live[j] = o.newID
			req = serve.UpsertRequest{ID: &o.id, Vector: ds.Vectors[o.newID]}
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // finite vectors and ids always encode
		}
		o.body = body
		in.ops = append(in.ops, o)
	}
	return in
}

// The program's build settings, as cmd/ansmet-serve builds a synthetic
// database; M and MaxDegree keep their default of 16.
const (
	efConstruction = 100
	buildSeed      = 42
)

func (r *run) options(p dataset.Profile) ansmet.Options {
	return ansmet.Options{
		Metric: p.Metric, Elem: p.Elem,
		EfConstruction: efConstruction, Seed: buildSeed, Mutable: r.writeRate > 0,
	}
}

func (r *run) snapshot() string { return filepath.Join(r.dir, "db.snap") }

// setup takes the generated vectors to a database ready to serve: built,
// and on the ingest workload snapshotted with its journal attached.
func (r *run) setup(in *inputs) (*ansmet.Database, error) {
	if r.writeRate == 0 {
		return ansmet.New(in.base, r.options(in.prof))
	}
	os.Remove(r.snapshot())
	os.Remove(ansmet.WALName(r.snapshot()))
	db, err := ansmet.New(in.base, r.options(in.prof))
	if err != nil {
		return nil, err
	}
	if err := db.SaveFile(r.snapshot()); err != nil {
		return nil, err
	}
	if err := db.AttachWAL(ansmet.WALName(r.snapshot())); err != nil {
		return nil, err
	}
	return db, nil
}

// heapMB is the live heap after a full collection.
func heapMB() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ingest is the writer's shared state, read by the searching client.
type ingest struct {
	issued                 atomic.Uint32  // one past the highest id an in-flight write may assign
	acks                   atomic.Int64   // delete/update acknowledgements so far
	deleted                []atomic.Int64 // per id: the ack number that tombstoned it, 0 if live
	adds, deletes, updates int
	writes                 latencies
}

// phase is one client's record of the timed phase.
type phase struct {
	beam, tiered, exact latencies
	attempted, failed   int64
	hits, answers       int64
	err                 error // first failed request
}

func (p *phase) merge(o *phase) {
	p.beam = append(p.beam, o.beam...)
	p.tiered = append(p.tiered, o.tiered...)
	p.exact = append(p.exact, o.exact...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.hits += o.hits
	p.answers += o.answers
	if p.err == nil {
		p.err = o.err
	}
}

// searched books one search reply: a failed request is counted, an answer
// is checked against the reference, and the latency joins its route.
func (r *run) searched(p *phase, in *inputs, qi int, truth []nb, mode string, res []result, lat time.Duration, err error, maxID uint32) {
	q := in.queries[qi]
	p.attempted++
	if err != nil {
		if errors.Is(err, errCheck) {
			r.fail("%v", err)
		} else {
			p.failed++
			if p.err == nil {
				p.err = err
			}
		}
		return
	}
	if err := in.ref.checkShape(q, res, k, maxID); err != nil {
		r.fail("%s answer: %v", routeName(mode), err)
		return
	}
	switch mode {
	case "tiered", "exact":
		if truth != nil {
			if err := in.ref.checkExact(q, res, truth); err != nil {
				r.fail("%s answer not exact: %v", mode, err)
			}
		}
		if mode == "tiered" {
			p.tiered = append(p.tiered, sample{qi, lat})
		} else {
			p.exact = append(p.exact, sample{qi, lat})
		}
	default:
		p.beam = append(p.beam, sample{qi, lat})
		if truth != nil {
			p.hits += int64(in.ref.hits(q, res, truth))
			p.answers++
		}
	}
}

func routeName(mode string) string {
	if mode == "" {
		return "beam"
	}
	return mode
}

// measure is the untraced run: set-up, the timed closed loop, the route
// probes, the restart and every check.
func (r *run) measure() error {
	in := r.inputs()
	var truth [][]nb
	if r.writeRate == 0 {
		truth = in.ref.truths(in.queries, k, nil)
	}
	bodies := map[string][][]byte{}
	for _, mode := range []string{"", "ndp", "tiered", "exact"} {
		for _, q := range in.queries {
			bodies[mode] = append(bodies[mode], searchBody(q, k, ef, mode))
		}
	}

	base := heapMB()
	var db *ansmet.Database
	var times []float64
	for i := 0; i < setups; i++ {
		if db != nil {
			db.Close()
			db = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if db, err = r.setup(in); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", "s", median(times))
	r.set("heap_mb", "MB", heapMB()-base)
	// Database.Run ignores tombstones, so the ingest workload prices its
	// queries here, before the first write.
	r.set("modeled_qps", "queries/s", db.Run(in.sample[:r.modeled], k, ef).Report.QPS())
	if r.writeRate == 0 {
		if err := db.SaveFile(r.snapshot()); err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
	}

	srv, err := startServer(db, nil)
	if err != nil {
		return err
	}
	var ing *ingest
	if r.writeRate > 0 {
		ing = &ingest{deleted: make([]atomic.Int64, len(in.ref.vecs))}
		ing.issued.Store(uint32(r.n))
	}
	var total phase
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	dur := time.Duration(r.seconds * float64(time.Second))
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(srv.url)
			defer cl.close()
			var p phase
			if ing != nil && c == 1 {
				r.write(cl, in, ing, start, dur, &p)
			} else {
				r.search(cl, c, in, truth, bodies, ing, start, dur, &p)
			}
			mu.Lock()
			total.merge(&p)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	searches := len(total.beam) + len(total.tiered) + len(total.exact)
	r.set("search_qps", "searches/s", float64(searches)/elapsed.Seconds())
	r.set("search_p50_ms", "ms", total.beam.pct(0.5))
	r.set("search_tail_ms", "ms", total.beam.pct(r.tail))
	fmt.Fprintf(os.Stderr, "%s: %d beam, %d tiered, %d exact searches in %.1f s; tail is p%g of %d beam samples\n",
		r.name, len(total.beam), len(total.tiered), len(total.exact), elapsed.Seconds(), r.tail*100, len(total.beam))
	if ing != nil {
		fmt.Fprintf(os.Stderr, "%s: %d writes (%d adds, %d deletes, %d updates) acknowledged: p50 %.3f ms, p99 %.3f ms\n",
			r.name, len(ing.writes), ing.adds, ing.deletes, ing.updates, ing.writes.pct(0.5), ing.writes.pct(0.99))
	}

	// The route probes go to the database that served the timed phase.
	// On the ingest workload the writes have stopped, so its truth is the
	// final live set.
	var after phase
	maxID, live := uint32(r.n), func(uint32) bool { return true }
	if ing != nil {
		r.checkTallies("live", db, ing)
		maxID, live = ing.final()
		truth = in.ref.truths(in.queries, k, live)
	} else if total.answers > 0 {
		r.set("recall_at_10", "fraction", float64(total.hits)/float64(total.answers*k))
	}
	if r.probes > 0 {
		r.probeRoutes(srv.url, in, truth, bodies, maxID, live, &after)
	}
	srv.stop()
	if ing == nil {
		rdb, err := r.restart(db, in, nil)
		if err != nil {
			return err
		}
		rdb.Close()
	} else if err := r.recover(db, in, ing, truth, bodies, &after); err != nil {
		return err
	}
	total.merge(&after)
	if len(total.tiered) > 0 {
		r.set("tiered_mean_ms", "ms", total.tiered.queryMean())
	}
	if len(total.exact) > 0 {
		r.set("exact_mean_ms", "ms", total.exact.queryMean())
	}
	r.out.Attempted, r.out.Failed = total.attempted, total.failed
	if total.err != nil {
		fmt.Fprintf(os.Stderr, "%s: first failed request: %v\n", r.name, total.err)
	}
	if rc := r.out.Metrics["recall_at_10"].Value; rc < recallFloor {
		r.fail("recall_at_10 %.4f below the floor %.2f", rc, recallFloor)
	}
	return nil
}

// search is a searching client's closed loop: it rotates through the
// workload's modes and cycles the queries until the phase ends.
func (r *run) search(cl *client, c int, in *inputs, truth [][]nb, bodies map[string][][]byte, ing *ingest, start time.Time, dur time.Duration, p *phase) {
	searchers := r.clients
	if ing != nil {
		searchers-- // the other client writes
	}
	perRound := len(r.modes) * len(in.queries) / searchers
	for i := 0; ; i++ {
		if (r.round == 0 || i%perRound == 0) && time.Since(start) >= dur {
			return
		}
		// Each query goes through every mode in turn, so every route sees
		// the same queries.
		qi := (c + searchers*(i/len(r.modes))) % len(in.queries)
		mode := r.modes[i%len(r.modes)]
		var acked int64
		if ing != nil {
			acked = ing.acks.Load()
		}
		res, lat, err := cl.search(bodies[mode][qi], mode, nil)
		maxID := uint32(r.n)
		var tr []nb
		if ing != nil {
			maxID = ing.issued.Load()
			r.checkAcked(ing, res, acked)
		} else {
			tr = truth[qi]
		}
		r.searched(p, in, qi, tr, mode, res, lat, err, maxID)
	}
}

// write is the ingest workload's writer: the seeded sequence at a fixed
// rate, each write sent once the previous one is acknowledged and its
// slot in the schedule has come.
func (r *run) write(cl *client, in *inputs, ing *ingest, start time.Time, dur time.Duration, p *phase) {
	for i := range in.ops {
		due := start.Add(time.Duration(float64(i) / r.writeRate * float64(time.Second)))
		if due.Sub(start) >= dur {
			return
		}
		time.Sleep(time.Until(due))
		if r.applyWrite(cl, in, ing, i, nil, p) != nil {
			// The sequence cannot go on without this write's effect.
			return
		}
	}
}

// applyWrite sends write i of the sequence and books its acknowledgement.
func (r *run) applyWrite(cl *client, in *inputs, ing *ingest, i int, hdr http.Header, p *phase) error {
	o := in.ops[i]
	path := "/v1/upsert"
	if o.kind == opDelete {
		path = "/v1/delete"
	} else {
		ing.issued.Store(o.newID + 1)
	}
	var rep struct {
		ID uint32 `json:"id"`
	}
	_, lat, err := cl.post(path, o.body, hdr, &rep)
	p.attempted++
	if err != nil {
		p.failed++
		if p.err == nil {
			p.err = err
		}
		return err
	}
	ing.writes = append(ing.writes, sample{i, lat})
	switch o.kind {
	case opAdd:
		ing.adds++
	case opDelete:
		ing.deletes++
	case opUpdate:
		ing.updates++
	}
	if o.kind != opDelete && rep.ID != o.newID {
		r.fail("write %d assigned id %d, want the next id %d", i, rep.ID, o.newID)
	}
	if o.kind != opAdd {
		a := ing.acks.Add(1)
		ing.deleted[o.id].Store(a)
	}
	return nil
}

// checkAcked fails the run when a search sent after the acknowledgement of
// a delete (acked: the acknowledgements counted when it was sent) returned
// the deleted id.
func (r *run) checkAcked(ing *ingest, res []result, acked int64) {
	for _, n := range res {
		if int(n.ID) < len(ing.deleted) {
			if a := ing.deleted[n.ID].Load(); a != 0 && a <= acked {
				r.fail("a search sent after the acknowledgement of deleting id %d returned it", n.ID)
			}
		}
	}
}

// probeRoutes sends the tiered and exact probes in probeRounds rounds of
// the probe queries, each answer checked exact against the reference;
// live tells which ids may appear. Each client takes every other probe
// query and sends it as tiered and then as exact, one request at a time,
// so both CPUs stay busy.
func (r *run) probeRoutes(url string, in *inputs, truth [][]nb, bodies map[string][][]byte, maxID uint32, live func(uint32) bool, p *phase) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.close()
			var cp phase
			for i := c; i < probeRounds*r.probes; i += r.clients {
				qi := i % r.probes
				for _, mode := range []string{"tiered", "exact"} {
					res, lat, err := cl.search(bodies[mode][qi], mode, nil)
					r.searched(&cp, in, qi, truth[qi], mode, res, lat, err, maxID)
					r.checkLive(mode, res, live)
				}
			}
			mu.Lock()
			p.merge(&cp)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
}

func (r *run) checkLive(mode string, res []result, live func(uint32) bool) {
	for _, n := range res {
		if !live(n.ID) {
			r.fail("%s answer returned deleted id %d", routeName(mode), n.ID)
		}
	}
}

const (
	// restartProbes is how many queries the restart check compares.
	restartProbes = 64
	// A restart loads the snapshot at least minLoads times, and more, up
	// to maxLoads, until loadSpan has passed; recover_s is the fastest
	// load. A load is the same work every time, and on a shared machine
	// the fastest is the one least slowed by other load, if the loads span
	// more than a burst of that load.
	minLoads = 10
	maxLoads = 60
	loadSpan = 6 * time.Second
)

// answers is the database's beam answer to each probe query, straight
// from the library.
func answers(db *ansmet.Database, qs [][]float32) ([][]ansmet.Neighbor, error) {
	out := make([][]ansmet.Neighbor, len(qs))
	for i, q := range qs {
		nn, err := db.SearchEf(q, k, ef)
		if err != nil {
			return nil, err
		}
		out[i] = nn
	}
	return out, nil
}

// restart loads the snapshot (and replays its journal) several times,
// reports the fastest load as recover_s, and checks the last loaded
// database answers every probe query with the same neighbours and
// distances as want (nil: db's answers). The caller closes the returned
// database.
func (r *run) restart(db *ansmet.Database, in *inputs, want [][]ansmet.Neighbor) (*ansmet.Database, error) {
	probes := in.sample[:restartProbes]
	if want == nil {
		var err error
		if want, err = answers(db, probes); err != nil {
			return nil, err
		}
	}
	var times []float64
	var rdb *ansmet.Database
	for start := time.Now(); len(times) < minLoads || (len(times) < maxLoads && time.Since(start) < loadSpan); {
		if rdb != nil {
			rdb.Close()
			rdb = nil
		}
		// Each load starts from a collected heap, as each set-up does.
		runtime.GC()
		t0 := time.Now()
		var err error
		if rdb, err = ansmet.LoadFile(r.snapshot(), nil); err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("recover_s", "s", slices.Min(times))
	got, err := answers(rdb, probes)
	if err != nil {
		rdb.Close()
		return nil, err
	}
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			r.fail("after the restart, probe %d answers %v, before it %v", i, got[i], want[i])
			break
		}
	}
	return rdb, nil
}

// final is the live set once the writer has stopped: one past the highest
// id assigned, and whether an id is live.
func (ing *ingest) final() (uint32, func(uint32) bool) {
	maxID := ing.issued.Load()
	return maxID, func(id uint32) bool { return id < maxID && ing.deleted[id].Load() == 0 }
}

// recover ends the ingest workload: it restarts from the snapshot and
// journal, checks the recovered database's mutation counters and answers
// against the live one's, and measures recall on it against the final
// live set (truth).
func (r *run) recover(db *ansmet.Database, in *inputs, ing *ingest, truth [][]nb, bodies map[string][][]byte, p *phase) error {
	want, err := answers(db, in.sample[:restartProbes])
	if err != nil {
		return err
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("closing: %w", err)
	}
	rdb, err := r.restart(db, in, want)
	if err != nil {
		return err
	}
	defer rdb.Close()
	r.checkTallies("recovered", rdb, ing)
	maxID, live := ing.final()
	srv, err := startServer(rdb, nil)
	if err != nil {
		return err
	}
	defer srv.stop()
	cl := newClient(srv.url)
	defer cl.close()
	var rp phase
	for qi := range in.queries {
		res, lat, err := cl.search(bodies[""][qi], "", nil)
		r.searched(&rp, in, qi, truth[qi], "", res, lat, err, maxID)
		r.checkLive("beam", res, live)
	}
	if rp.answers > 0 {
		r.set("recall_at_10", "fraction", float64(rp.hits)/float64(rp.answers*k))
	}
	// These latencies are not the timed phase's: only the counts join p.
	p.attempted += rp.attempted
	p.failed += rp.failed
	if p.err == nil {
		p.err = rp.err
	}
	return nil
}

// checkTallies compares the program's mutation counters with the writer's
// own count of acknowledged writes.
func (r *run) checkTallies(which string, db *ansmet.Database, ing *ingest) {
	st := db.Stats()
	if st.Adds != uint64(ing.adds) || st.Deletes != uint64(ing.deletes) || st.Updates != uint64(ing.updates) ||
		st.Tombstones != ing.deletes+ing.updates {
		r.fail("%s database counts %d adds, %d deletes, %d updates, %d tombstones; acknowledged %d, %d, %d (%d tombstones)",
			which, st.Adds, st.Deletes, st.Updates, st.Tombstones, ing.adds, ing.deletes, ing.updates, ing.deletes+ing.updates)
	}
}
