package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"hash/maphash"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"itmap/internal/mapstore"
	obspkg "itmap/internal/obs"
	"itmap/internal/randx"
)

// conns is the generator's connection count, and so its goroutine count:
// the benchmark is sized for a 2-core machine.
const conns = 2

// server is itm-serve's handler stack, Admission.Wrap(mapstore.NewHandler),
// on a loopback socket, so net/http is in every request's path. In traced
// runs two thin wrappers around the admission valve record an admission
// span and a handler span per request; untraced runs serve the bare stack.
type server struct {
	base string
	srv  *http.Server
	done chan error
	adm  *mapstore.Admission
	tr   *tracer

	mu       sync.Mutex
	waits    []float64            // admission wait per request, ms
	handler  map[string][]float64 // handler time per route, ms
	queueMax int
}

type ctxKey struct{}

// admitted is what the admission wrapper hands the handler wrapper.
type admitted struct {
	sp    *span
	at    time.Time
	trace string
}

func startServer(st *mapstore.Store, tr *tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		base:    "http://" + ln.Addr().String(),
		done:    make(chan error, 1),
		adm:     mapstore.NewAdmission(mapstore.AdmissionConfig{}),
		tr:      tr,
		handler: map[string][]float64{},
	}
	var h http.Handler
	if tr == nil {
		h = s.adm.Wrap(mapstore.NewHandler(st))
	} else {
		h = s.admissionSpan(s.adm.Wrap(s.handlerSpan(mapstore.NewHandler(st))))
	}
	s.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection, then waits for Serve to
// return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func (s *server) admissionSpan(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		traceID, parentID, _ := obspkg.ParseTraceparent(r.Header.Get("traceparent"))
		parent, _ := strconv.ParseUint(parentID, 16, 64)
		a := &admitted{sp: s.tr.startIn("http.admission", parent, traceID), at: time.Now(), trace: traceID}
		q := s.adm.QueueDepth()
		s.mu.Lock()
		s.queueMax = max(s.queueMax, q)
		s.mu.Unlock()
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), ctxKey{}, a)))
		a.sp.end()
	})
}

func (s *server) handlerSpan(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		a, _ := r.Context().Value(ctxKey{}).(*admitted)
		if a == nil || a.trace == "" {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		sp := s.tr.startIn("mapstore.handler", a.sp.id(), a.trace)
		next.ServeHTTP(w, r)
		sp.end()
		d := time.Since(start)
		route := routeOf(r.URL.Path, r.URL.RawQuery)
		s.mu.Lock()
		s.waits = append(s.waits, ms(start.Sub(a.at)))
		s.handler[route] = append(s.handler[route], ms(d))
		s.mu.Unlock()
	})
}

// routeOf names the consumer-mix route a request path belongs to.
func routeOf(path, query string) string {
	switch {
	case path == "/v1/top":
		return "top"
	case strings.HasPrefix(path, "/v1/as/"):
		return "as"
	case strings.HasPrefix(path, "/v1/map/"):
		if strings.Contains(query, "format=binary") {
			return "map_bin"
		}
		return "map"
	case strings.HasPrefix(path, "/v1/diff/"):
		return "diff"
	case strings.HasPrefix(path, "/v1/path/"):
		return "path"
	case path == "/v1/latency/top":
		return "latency_top"
	case strings.HasPrefix(path, "/v1/latency/"):
		return "latency"
	case strings.HasPrefix(path, "/v1/link/"):
		return "link"
	}
	return "other"
}

// routes is every route of the consumer mix, in report order.
var routes = []string{"top", "as", "map", "map_bin", "diff", "path", "latency", "latency_top"}

// request is one planned probe of the consumer mix.
type request struct {
	url        string
	revalidate bool // send If-None-Match when the URL's ETag is known
	conn       int  // owning connection, by hash of the URL
}

// storeShape is what the plan draws from: epoch IDs, a zipf-ranked AS
// pool and (for a store with mesh sections) the worst-latency pairs.
type storeShape struct {
	epochs int
	ases   []uint32
	pairs  [][2]uint32
}

func shapeOf(st *mapstore.Store) storeShape {
	e := st.Latest()
	sh := storeShape{epochs: st.Len()}
	for _, r := range e.TopASes(64) {
		sh.ases = append(sh.ases, r.ASN)
	}
	for _, p := range e.WorstMeshPairs(64) {
		sh.pairs = append(sh.pairs, [2]uint32{p.A, p.B})
	}
	return sh
}

// meshShare is the share of user↔user requests on a meshed store:
// itm-bench replays 2000 requests of loadgen's map mix and 1000 of its
// mesh mix, so one request in three is a mesh lookup.
const meshShare = 1.0 / 3

// planMix draws n requests of the consumer mix from seed. It replays
// loadgen's two profiles with their weights and top-K lists: the map mix
// (rankings and zipf-skewed AS views dominate, full maps, a quarter
// binary, and diffs fill in) and, on a meshed store, meshShare of the
// mesh mix (path and latency lookups over zipf-skewed pairs, worst-pair
// rankings). Each revisit revalidates with probability 0.8, loadgen's
// default.
func planMix(seed int64, n int, sh storeShape) []request {
	src := randx.New(seed)
	asZipf := randx.NewZipf(len(sh.ases), 1.1)
	var pairZipf *randx.Zipf
	if len(sh.pairs) > 0 {
		pairZipf = randx.NewZipf(len(sh.pairs), 1.1)
	}
	mapTopKs := []int{10, 10, 10, 5, 20}
	meshTopKs := []int{10, 10, 5, 20}
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		var url string
		if pairZipf != nil && src.Bool(meshShare) {
			switch roll := src.Float64(); {
			case roll < 0.9:
				p := sh.pairs[pairZipf.Sample(src)-1]
				a, b := p[0], p[1]
				if src.Bool(0.5) {
					a, b = b, a
				}
				kind := "/v1/path/"
				if roll >= 0.45 {
					kind = "/v1/latency/"
				}
				url = kind + strconv.FormatUint(uint64(a), 10) + "/" + strconv.FormatUint(uint64(b), 10)
			default:
				url = "/v1/latency/top?k=" + strconv.Itoa(meshTopKs[src.Intn(len(meshTopKs))])
			}
		} else {
			switch roll := src.Float64(); {
			case roll < 0.35 || (roll >= 0.85 && sh.epochs < 2):
				url = "/v1/top?k=" + strconv.Itoa(mapTopKs[src.Intn(len(mapTopKs))])
			case roll < 0.65:
				url = "/v1/as/" + strconv.FormatUint(uint64(sh.ases[asZipf.Sample(src)-1]), 10)
			case roll < 0.85:
				url = "/v1/map/" + strconv.Itoa(src.Intn(sh.epochs))
				if src.Bool(0.25) {
					url += "?format=binary"
				}
			default:
				a := src.Intn(sh.epochs - 1)
				url = "/v1/diff/" + strconv.Itoa(a) + "/" + strconv.Itoa(a+1)
			}
		}
		reqs = append(reqs, request{url: url, revalidate: src.Bool(0.8), conn: connOf(url)})
	}
	return reqs
}

// connOf routes a URL to its owning connection, so every request for one
// URL runs on one connection in plan order and its revalidation state
// stays in order.
func connOf(url string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(url))
	return int(h.Sum32() % conns)
}

// doer issues one HTTP request; *http.Client is the real one.
type doer interface {
	Do(*http.Request) (*http.Response, error)
}

// client is one generator connection: a keep-alive HTTP client plus the
// correctness state of the URLs routed to it.
type client struct {
	d     doer
	base  string
	check *replyChecker
	tr    *tracer
	// traceSeed and sent mint each traced request a distinct trace ID;
	// phase is the span the request spans belong to.
	traceSeed uint64
	sent      uint64
	phase     uint64
	// buf is reused for every reply body, so reading bodies does not
	// weigh on the collector the server shares.
	buf bytes.Buffer
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// reply is what one request returned.
type reply struct {
	status int
	xcache string
	bytes  int
	err    error // transport error or failed correctness check
}

// do sends req and checks the reply.
func (c *client) do(req request) reply {
	hr, err := http.NewRequest(http.MethodGet, c.base+req.url, nil)
	if err != nil {
		return reply{err: err}
	}
	inm := ""
	if req.revalidate {
		inm = c.check.last[req.url]
	}
	if inm != "" {
		hr.Header.Set("If-None-Match", inm)
	}
	var sp *span
	if c.tr != nil {
		c.sent++
		hi, lo := randx.Hash64(c.traceSeed, c.sent, 0), randx.Hash64(c.traceSeed, c.sent, 1)
		traceID := obspkg.FormatTraceparent(hi, lo, 1)[3:35]
		sp = c.tr.startIn("gen.request", c.phase, traceID)
		hr.Header.Set("traceparent", obspkg.FormatTraceparent(hi, lo, sp.id()))
	}
	resp, err := c.d.Do(hr)
	if err != nil {
		sp.end()
		return reply{err: err}
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body is fully read; close only returns the connection
	sp.end()
	if err != nil {
		return reply{err: err}
	}
	body := c.buf.Bytes()
	r := reply{status: resp.StatusCode, xcache: verdict(resp.Header.Get("X-Cache")), bytes: len(body)}
	r.err = c.check.observe(req.url, inm, resp.StatusCode, resp.Header.Get("ETag"), body)
	return r
}

// verdict returns the handler's X-Cache value as a constant, so the
// request log holds no per-reply strings and its size is its slices'.
func verdict(h string) string {
	switch h {
	case "hit":
		return "hit"
	case "miss":
		return "miss"
	case "store":
		return "store"
	case "bypass":
		return "bypass"
	}
	return h
}

// outcome is one timed request of a phase.
type outcome struct {
	reply
	due, sent, done time.Time
}

// newClients builds one client per connection against base; with tr set
// their requests carry traceparent headers.
func newClients(base string, hashSeed maphash.Seed, encoded func(int) ([]byte, bool), tr *tracer, seed int64) []*client {
	cs := make([]*client, conns)
	for i := range cs {
		cs[i] = &client{d: newHTTPClient(), base: base, check: newReplyChecker(hashSeed, encoded), tr: tr,
			traceSeed: randx.Hash64(uint64(seed), uint64(i))}
	}
	return cs
}

// within makes the clients' request spans children of phase span id.
func within(cs []*client, id uint64) {
	for _, c := range cs {
		c.phase = id
	}
}

// closeIdle drops the clients' keep-alive connections.
func closeIdle(cs []*client) {
	for _, c := range cs {
		if hc, ok := c.d.(*http.Client); ok {
			hc.CloseIdleConnections()
		}
	}
}

// openLoop sends reqs on a fixed-rate schedule: request i is due at
// start + i/rate whatever happened before it. Each connection sends its
// own requests in due order, so a slow reply delays the requests queued
// behind it on that connection, and every request is timed from its due
// time, not from when it was sent.
func openLoop(cs []*client, reqs []request, rate float64) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, req := range reqs {
				if req.conn != ci {
					continue
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				r := c.do(req)
				out[i] = outcome{reply: r, due: due, sent: sent, done: time.Now()}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps every connection busy back to back, cycling through
// reqs, until d has passed.
func closedLoop(cs []*client, reqs []request, d time.Duration) []outcome {
	per := make([][]outcome, len(cs))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []int
			for i, req := range reqs {
				if req.conn == ci {
					mine = append(mine, i)
				}
			}
			if len(mine) == 0 {
				return
			}
			for k := 0; time.Now().Before(deadline); k++ {
				i := mine[k%len(mine)]
				sent := time.Now()
				r := c.do(reqs[i])
				per[ci] = append(per[ci], outcome{reply: r, due: sent, sent: sent, done: time.Now()})
			}
		}()
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// windowRates splits [start, start+d) into windows of w and returns the
// rate of successful replies completed in each.
func windowRates(outs []outcome, start time.Time, d, w time.Duration) []float64 {
	n := int(d / w)
	if n < 1 {
		return nil
	}
	counts := make([]float64, n)
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		k := int(o.done.Sub(start) / w)
		if k >= 0 && k < n {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= w.Seconds()
	}
	return counts
}

// serveStats is what a serving phase measured.
type serveStats struct {
	srv          *server
	open, closed []outcome
	closedStart  time.Time
	closedDur    time.Duration
	appendMs     []float64 // appends beside reads, ms each
	alloc0       runtimeSample
	alloc1       runtimeSample
	shed         float64
	steal        *stealClock // samples the host's steal over both loops
}

// programHeapMB is the live heap after a forced GC less the generator's
// request log, whose length grows with throughput: what the program and
// the workload's state hold at the end of the serving phase.
func (s *serveStats) programHeapMB() float64 {
	log := float64(cap(s.open)+cap(s.closed)) * float64(unsafe.Sizeof(outcome{}))
	return liveHeapMB() - log/(1<<20)
}

// serveStore serves st for one serving phase: an untimed warm-up pass
// over every URL of the plans, the open loop for openDur and the closed
// loop for closedDur, then takes the heap_live_mb reading. With ap set it
// also appends ap's daily maps and meshes to ap.st at appendEvery while
// the open loop runs; the closed loop starts once the last append is
// durable.
func (b *bench) serveStore(st *mapstore.Store, ap *pipeline, openDur, closedDur time.Duration) error {
	srv, err := startServer(st, b.tr)
	if err != nil {
		return err
	}
	sh := shapeOf(st)
	hashSeed := maphash.MakeSeed()
	encoded := storeEncoded(st)
	nOpen := int(b.rate * openDur.Seconds())
	openPlan := planMix(b.seed, nOpen, sh)
	closedPlan := planMix(b.seed+1, 20000, sh)

	warm := newClients(srv.base, hashSeed, encoded, nil, b.seed)
	for _, o := range warmUp(warm, append(openPlan, closedPlan...)) {
		b.res.op(o.err)
	}
	closeIdle(warm)

	s := &serveStats{srv: srv, closedDur: closedDur}
	cs := newClients(srv.base, hashSeed, encoded, b.tr, b.seed)
	shed0 := obsTotal("itm_admission_shed_total")
	runtime.GC()
	s.alloc0 = readRuntime()
	appended := make(chan error, 1)
	if ap != nil {
		go func() { appended <- b.appendBeside(ap, openDur, s) }()
	} else {
		appended <- nil
	}
	s.steal = startStealClock()
	sp := b.tr.start("serve.open", 0)
	within(cs, sp.id())
	s.open = openLoop(cs, openPlan, b.rate)
	sp.end()
	appendErr := <-appended
	sp = b.tr.start("serve.closed", 0)
	within(cs, sp.id())
	s.closedStart = time.Now()
	s.closed = closedLoop(cs, closedPlan, closedDur)
	sp.end()
	s.steal.end()
	s.alloc1 = readRuntime()
	s.shed = obsTotal("itm_admission_shed_total") - shed0
	closeIdle(cs)
	stopErr := srv.stop()
	for _, o := range s.open {
		b.res.op(o.err)
	}
	for _, o := range s.closed {
		b.res.op(o.err)
	}
	b.serve = s
	b.heapMB = s.programHeapMB()
	if appendErr != nil {
		return appendErr
	}
	return stopErr
}

// warmUp fetches every distinct URL of reqs once on its owning connection.
func warmUp(cs []*client, reqs []request) []outcome {
	seen := map[string]bool{}
	var urls []request
	for _, r := range reqs {
		if !seen[r.url] {
			seen[r.url] = true
			urls = append(urls, request{url: r.url, conn: r.conn})
		}
	}
	per := make([][]outcome, len(cs))
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range urls {
				if r.conn == ci {
					now := time.Now()
					per[ci] = append(per[ci], outcome{reply: c.do(r), due: now, sent: now, done: time.Now()})
				}
			}
		}()
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// appendBeside appends p's daily maps and meshes, in turn, at an
// advancing simulated time every appendEvery for window: a fixed
// number of journaled epochs while the store serves.
func (b *bench) appendBeside(p *pipeline, window time.Duration, s *serveStats) error {
	n := int(window / appendEvery)
	start := time.Now()
	next := p.st.Len()
	for k := 0; k < n; k++ {
		if d := time.Until(start.Add(time.Duration(k) * appendEvery)); d > 0 {
			time.Sleep(d)
		}
		day := k % len(p.maps)
		sp := b.tr.start("ingest", 0)
		d, err := p.append(dayAt(next+k), p.maps[day], p.meshes[day], sp.id())
		sp.end()
		b.res.op(err)
		if err != nil {
			return err
		}
		s.appendMs = append(s.appendMs, ms(d))
	}
	return nil
}
