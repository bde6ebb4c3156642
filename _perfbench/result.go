package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
)

// result collects one run's samples, checks and deterministic counters.
type result struct {
	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	// samples are raw end-to-end samples, layers raw per-layer samples,
	// both by metric name.
	samples map[string][]float64
	layers  map[string][]float64
	// reps holds each repetition's deterministic campaign counters; cur
	// is the repetition in progress.
	reps []map[string]float64
	cur  map[string]float64
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, layers: map[string][]float64{}, cur: map[string]float64{}}
}

// check counts one correctness check, and a failure when !ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// op counts one operation (a request, an epoch, a recovery); err marks it
// failed.
func (r *result) op(err error) {
	if err != nil {
		r.check(false, "%v", err)
		return
	}
	r.check(true, "")
}

func (r *result) sample(name string, v float64) {
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

func (r *result) layer(name string, v float64) {
	r.mu.Lock()
	r.layers[name] = append(r.layers[name], v)
	r.mu.Unlock()
}

// counter adds to a deterministic counter of the current repetition.
func (r *result) counter(name string, v float64) {
	r.mu.Lock()
	r.cur[name] += v
	r.mu.Unlock()
}

// endRep closes a repetition of the same seeded campaign and checks that
// its deterministic counters equal the first repetition's.
func (r *result) endRep() {
	r.mu.Lock()
	cur := r.cur
	r.reps = append(r.reps, cur)
	r.cur = map[string]float64{}
	first := r.reps[0]
	r.mu.Unlock()
	ok := maps.Equal(cur, first)
	r.check(ok, "repetition %d counters %v differ from the first repetition's %v", len(r.reps)-1, cur, first)
}

// metric is one reported figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples behind the value
	Note  string // e.g. which percentile a p99 slot holds
}

// report is the ordered set of figures one run prints.
type report struct {
	e2e    []metric
	layers []metric
	self   []metric
	trace  []metric // tracing overhead per end-to-end figure
}

func (rp *report) addE2E(m metric)   { rp.e2e = append(rp.e2e, m) }
func (rp *report) addLayer(m metric) { rp.layers = append(rp.layers, m) }

// line is the result line: the last line of standard output.
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints every figure by name with its unit and sample count, then
// the result line, carrying the end-to-end figures (or, traced, the
// per-layer ones) that are listed in keep.
func (rp *report) write(w io.Writer, header string, r *result, traced bool, keep []string) error {
	fmt.Fprintln(w, header)
	section := func(kind string, ms []metric) {
		for _, m := range ms {
			note := ""
			if m.Note != "" {
				note = " (" + m.Note + ")"
			}
			fmt.Fprintf(w, "%-6s %-36s %14.6f %-8s n=%d%s\n", kind, m.Name, m.Value, m.Unit, m.N, note)
		}
	}
	section("e2e", rp.e2e)
	section("layer", rp.layers)
	section("self", rp.self)
	section("trace", rp.trace)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	src := rp.e2e
	if traced {
		src = rp.layers
	}
	byName := map[string]metric{}
	for _, m := range src {
		byName[m.Name] = m
	}
	out := line{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: map[string]lineMetric{}}
	var missing []string
	for _, name := range keep {
		m, ok := byName[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
