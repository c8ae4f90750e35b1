package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"ansmet"
	"ansmet/internal/serve"
)

// wire builds the serve configuration the way cmd/ansmet-serve wires a
// single database: a plain search calls SearchEfCtx, a request naming a
// "mode" calls SearchRouted, and on a mutable database upsert and delete
// call Add/Update and Delete. Each hook opens a span on tr (a no-op when
// tr is nil). The deadline is raised from the server's 2 s default so
// that no request of a slow route fails on an overloaded machine.
func wire(db *ansmet.Database, tr *tracer) serve.Config {
	cfg := serve.Config{
		BadRequest: func(err error) bool {
			return ansmet.IsInvalidInput(err) || ansmet.IsMutationError(err)
		},
		DefaultTimeout: 60 * time.Second,
		MaxTimeout:     60 * time.Second,
		Search: func(ctx context.Context, q []float32, k, ef int) ([]ansmet.Neighbor, error) {
			defer tr.begin(ctx, "ansmet.SearchEfCtx").end()
			return db.SearchEfCtx(ctx, q, k, ef)
		},
		SearchRouted: func(ctx context.Context, q []float32, k, ef int, mode string) (serve.Outcome, error) {
			defer tr.begin(ctx, "ansmet.SearchRouted."+mode).end()
			r, err := ansmet.ParseRoute(mode)
			if err != nil {
				return serve.Outcome{}, err
			}
			nn, route, err := db.SearchRouted(ctx, q, k, ef, r, nil)
			return serve.Outcome{Neighbors: nn, Route: route.String()}, err
		},
	}
	if db.Mutable() {
		cfg.Upsert = func(ctx context.Context, id uint32, hasID bool, vec []float32) (uint32, error) {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			if hasID {
				defer tr.begin(ctx, "ansmet.Update").end()
				return db.Update(id, vec)
			}
			defer tr.begin(ctx, "ansmet.Add").end()
			return db.Add(vec)
		}
		cfg.Delete = func(ctx context.Context, id uint32) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			defer tr.begin(ctx, "ansmet.Delete").end()
			return db.Delete(id)
		}
	}
	return cfg
}

// server is an in-process internal/serve handler on a loopback listener.
type server struct {
	hs   *http.Server
	url  string
	done chan error
}

// startServer serves db on 127.0.0.1 at a free port, with the traced
// middleware around Server.Handler() when tr is set.
func startServer(db *ansmet.Database, tr *tracer) (*server, error) {
	core, err := serve.New(wire(db, tr))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: tr.middleware(core.Handler()), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to end.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient(url string) *client {
	return &client{
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
		url: url,
	}
}

func (c *client) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// post sends one pre-encoded request and decodes the reply into out. The
// latency runs from the send to the last byte of the body.
func (c *client) post(path string, body []byte, hdr http.Header, out any) (route string, lat time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", 0, err
	}
	data, err := io.ReadAll(resp.Body)
	lat = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return "", lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", lat, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return "", lat, fmt.Errorf("%s: decoding reply: %w", path, err)
	}
	return resp.Header.Get(serve.RouteHeader), lat, nil
}

// searchBody pre-encodes one /v1/search request, so the clients spend no
// time in JSON encoding while the clock runs.
func searchBody(q []float32, k, ef int, mode string) []byte {
	b, err := json.Marshal(serve.SearchRequest{Query: q, K: k, Ef: ef, Mode: mode})
	if err != nil {
		panic(err) // a []float32 of finite values always encodes
	}
	return b
}

type searchReply struct {
	Results []result `json:"results"`
}

// search sends one search and checks the reported route.
func (c *client) search(body []byte, mode string, hdr http.Header) ([]result, time.Duration, error) {
	var rep searchReply
	route, lat, err := c.post("/v1/search", body, hdr, &rep)
	if err != nil {
		return nil, lat, err
	}
	if mode != "" && route != mode {
		return nil, lat, fmt.Errorf("%w: asked for route %q, %s header says %q", errCheck, mode, serve.RouteHeader, route)
	}
	return rep.Results, lat, nil
}

// errCheck marks a reply that arrived but failed a correctness check, as
// opposed to a request that failed.
var errCheck = errors.New("check failed")

// sample is one request's latency and the index of its query (or, for a
// write, of the write in the sequence).
type sample struct {
	q   int
	lat time.Duration
}

// latencies is a sample of request times.
type latencies []sample

// pct is the nearest-rank percentile p in (0, 1], in milliseconds.
func (l latencies) pct(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i].lat < s[j].lat })
	i := int(float64(len(s))*p+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i].lat) / 1e6
}

// queryMean is a route's mean latency in milliseconds: the mean over the
// queries of each query's median latency. A query's samples are spread
// over the phase, so its median keeps a burst of load from elsewhere on
// the machine to the samples it hit; the mean keeps the weight of the
// costly queries, where a median over all samples would sit between the
// cheap and the costly ones.
func (l latencies) queryMean() float64 {
	per := map[int][]float64{}
	for _, s := range l {
		per[s.q] = append(per[s.q], float64(s.lat)/1e6)
	}
	var sum float64
	for _, xs := range per {
		sum += median(xs)
	}
	return sum / float64(len(per))
}
