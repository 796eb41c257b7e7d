package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	lremote "firemarshal/internal/launcher/remote"
)

// server is a loopback HTTP server owned by the benchmark.
type server struct {
	URL  string
	Addr string
	srv  *http.Server
	done chan struct{}
}

// serve starts h on an ephemeral loopback port.
func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{Addr: ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	s.URL = "http://" + s.Addr
	go func() {
		defer close(s.done)
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(err)
		}
	}()
	return s, nil
}

// Close stops the server and waits until its accept loop has returned.
func (s *server) Close() {
	if s == nil {
		return
	}
	s.srv.Close()
	<-s.done
}

// serverProbe times a cache server from outside: it wraps the
// remote.Server handler and accumulates handler time per request kind,
// the request count and the body bytes moved each way. It measures only
// while on is set.
type serverProbe struct {
	inner  http.Handler
	on     atomic.Bool
	getNS  atomic.Int64 // GET and HEAD handler time
	putNS  atomic.Int64 // PUT and POST handler time
	reqs   atomic.Int64
	served atomic.Int64 // response body bytes
	stored atomic.Int64 // request body bytes
}

func (p *serverProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !p.on.Load() {
		p.inner.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	body := &countingReader{r: r.Body}
	r.Body = body
	start := time.Now()
	p.inner.ServeHTTP(cw, r)
	d := time.Since(start).Nanoseconds()
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		p.getNS.Add(d)
	} else {
		p.putNS.Add(d)
	}
	p.reqs.Add(1)
	p.served.Add(cw.n)
	p.stored.Add(body.n.Load())
}

// probeTotals is a snapshot of a serverProbe's accumulators.
type probeTotals struct {
	getS, putS           float64
	reqs, served, stored int64
}

func (p *serverProbe) totals() probeTotals {
	return probeTotals{
		getS:   float64(p.getNS.Load()) / 1e9,
		putS:   float64(p.putNS.Load()) / 1e9,
		reqs:   p.reqs.Load(),
		served: p.served.Load(),
		stored: p.stored.Load(),
	}
}

func (a probeTotals) minus(b probeTotals) probeTotals {
	return probeTotals{a.getS - b.getS, a.putS - b.putS, a.reqs - b.reqs, a.served - b.served, a.stored - b.stored}
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// ReadFrom keeps the server's io.Copy on the wrapped writer's fast path.
func (c *countingWriter) ReadFrom(src io.Reader) (int64, error) {
	n, err := io.Copy(c.ResponseWriter, src)
	c.n += n
	return n, err
}

type countingReader struct {
	r io.ReadCloser
	n atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

// countingTransport counts the requests a client sends through it.
type countingTransport struct {
	inner http.RoundTripper
	n     atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.n.Add(1)
	return t.inner.RoundTrip(r)
}

// runnerProbe wraps a worker's Runner: it accumulates time spent inside
// Run and records when each job's first attempt started.
type runnerProbe struct {
	inner lremote.Runner
	on    atomic.Bool
	runNS atomic.Int64

	mu     sync.Mutex
	starts map[string]time.Time
}

func (p *runnerProbe) Run(ctx context.Context, spec lremote.JobSpec, emit func(lremote.Event)) (*lremote.RunOutput, error) {
	if !p.on.Load() {
		return p.inner.Run(ctx, spec, emit)
	}
	start := time.Now()
	p.mu.Lock()
	if _, ok := p.starts[spec.Name]; !ok {
		p.starts[spec.Name] = start
	}
	p.mu.Unlock()
	out, err := p.inner.Run(ctx, spec, emit)
	p.runNS.Add(time.Since(start).Nanoseconds())
	return out, err
}

// reset clears the probe for the next op and turns it on or off.
func (p *runnerProbe) reset(on bool) {
	p.mu.Lock()
	p.starts = map[string]time.Time{}
	p.mu.Unlock()
	p.runNS.Store(0)
	p.on.Store(on)
}
