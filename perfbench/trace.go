package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"ansmet/internal/engine"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the run began; spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced paths share the traced code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

// open is a span that has begun.
type open struct {
	t *tracer
	s span
}

type spanKey struct{}

// Headers that carry the client's span across the socket.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

func (t *tracer) open(name string, parent, req int64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{t: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}}
}

// begin opens a span under the one ctx carries.
func (t *tracer) begin(ctx context.Context, name string) open {
	if t == nil {
		return open{}
	}
	p, _ := ctx.Value(spanKey{}).(span)
	return t.open(name, p.ID, p.Req)
}

func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

func (o open) context(ctx context.Context) context.Context {
	return context.WithValue(ctx, spanKey{}, o.s)
}

// middleware opens a span around Server.Handler(), parented to the client
// span named in the request headers.
func (t *tracer) middleware(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		name := "serve.Handler"
		if r.URL.Path != "/v1/search" {
			name += ".write"
		}
		o := t.open(name, parent, req)
		next.ServeHTTP(w, r.WithContext(o.context(r.Context())))
		o.end()
	})
}

// clientSpan opens a request's root span and the headers that carry it.
func (t *tracer) clientSpan(name string, req int64) (open, http.Header) {
	o := t.open(name, 0, req)
	return o, http.Header{hdrReq: {strconv.FormatInt(req, 10)}, hdrSpan: {strconv.FormatInt(o.s.ID, 10)}}
}

// layerStats is the finished spans' durations and self times by name, in
// nanoseconds. A span's self time is its duration minus its children's;
// children of one span never overlap, since each request runs on one
// goroutine at a time.
type layerStats struct {
	dur, self map[string][]float64
}

func (t *tracer) stats() layerStats {
	ls := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	child := map[int64]float64{}
	for _, s := range t.spans {
		child[s.Parent] += float64(s.End - s.Start)
	}
	for _, s := range t.spans {
		d := float64(s.End - s.Start)
		ls.dur[s.Name] = append(ls.dur[s.Name], d)
		ls.self[s.Name] = append(ls.self[s.Name], d-child[s.ID])
	}
	return ls
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// write stores the spans as JSON lines under .bench_build/trace.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// call is one comparison the graph walk asked for.
type call struct {
	id uint32
	th float64
}

// meter wraps the system's worker engine: it times and counts every
// comparison and records the walk's comparison sequence for replay.
type meter struct {
	engine.Engine
	full  int
	calls []call
	busy  time.Duration
	n     int64 // comparisons
	lines int64 // lines fetched, backups included
	early int64 // comparisons rejected before a full fetch
}

func (m *meter) Compare(id uint32, th float64) engine.Result {
	t0 := time.Now()
	res := m.Engine.Compare(id, th)
	m.busy += time.Since(t0)
	m.calls = append(m.calls, call{id, th})
	m.n++
	m.lines += int64(res.TotalLines())
	if !res.Accepted && res.Lines < m.full {
		m.early++
	}
	return res
}

// replayCalls times a recorded comparison sequence on eng with one clock
// read around the loop.
func replayCalls(eng engine.Engine, q []float32, calls []call) time.Duration {
	t0 := time.Now()
	eng.StartQuery(q)
	for _, c := range calls {
		eng.Compare(c.id, c.th)
	}
	return time.Since(t0)
}
