package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// report turns the run's samples into figures. End-to-end figures are
// always computed; per-layer figures and self times need the spans of a
// traced run.
func (b *bench) report() *report {
	rp := &report{}
	r := b.res
	med := func(name, unit string, scale float64) {
		xs := append([]float64(nil), r.samples[name]...)
		rp.addE2E(metric{Name: name, Value: median(xs) * scale, Unit: unit, N: len(xs)})
	}
	med("setup_s", "s", 1)
	med("epoch_cold_s", "s", 1)
	med("epoch_warm_s", "s", 1)
	med("recover_s", "s", 1)
	s := b.serve
	appends, where := b.appendTimes()
	ingest := summarize(appends)
	rp.addE2E(metric{Name: "ingest_p50_ms", Value: ingest.P50, Unit: "ms", N: ingest.N, Note: where})

	var lat []float64
	within := 0
	for _, o := range s.open {
		if o.err != nil {
			continue
		}
		d := o.done.Sub(o.due)
		lat = append(lat, ms(d))
		if d <= sloLimit {
			within++
		}
	}
	ls := summarize(lat)
	rp.addE2E(metric{Name: "serve_p50_ms", Value: ls.P50, Unit: "ms", N: ls.N})
	rp.addE2E(metric{Name: "serve_p99_ms", Value: ls.P99, Unit: "ms", N: ls.N, Note: pct(ls.P99Q)})
	if ls.TailQ > ls.P99Q {
		rp.addE2E(metric{Name: "serve_" + pct(ls.TailQ) + "_ms", Value: ls.Tail, Unit: "ms", N: ls.N})
	}
	rp.addE2E(metric{Name: "serve_within_slo", Value: ratio(float64(within), float64(len(s.open))), Unit: "ratio",
		N: len(s.open), Note: fmt.Sprintf("limit %v", sloLimit)})
	const rateWindow = 500 * time.Millisecond
	rates := windowRates(s.closed, s.closedStart, s.closedDur, rateWindow)
	net := make([]float64, len(rates))
	for k, r := range rates {
		from := s.closedStart.Add(time.Duration(k) * rateWindow)
		net[k] = r / (1 - s.steal.share(from, from.Add(rateWindow)))
	}
	rp.addE2E(metric{Name: "serve_max_qps", Value: median(net), Unit: "req/s",
		N: len(net), Note: "median of 0.5 s windows net of steal, 2 connections"})
	// Diagnostics, not gated: the quietest quarter of the windows. Other
	// tenants of the machine take the CPUs in bursts, which only ever add
	// latency and lower rates, so a gap between these and the figures
	// above that the trace does not explain points at the machine.
	var p50s []float64
	for _, w := range windowLatencies(s.open, time.Second) {
		p50s = append(p50s, summarize(w).P50)
	}
	rp.addE2E(metric{Name: "serve_p50_ms.quiet", Value: sortedQuantile(p50s, 0.25), Unit: "ms", N: len(p50s),
		Note: "lower quartile of one-second windows' p50"})
	rp.addE2E(metric{Name: "serve_max_qps.quiet", Value: sortedQuantile(rates, 0.75), Unit: "req/s", N: len(rates),
		Note: "upper quartile of 0.5 s windows"})
	rp.addE2E(metric{Name: "error_ratio", Value: ratio(float64(r.failed), float64(r.attempted)), Unit: "ratio", N: r.attempted})
	rp.addE2E(metric{Name: "heap_live_mb", Value: b.heapMB, Unit: "MB", N: 1})
	rp.addE2E(metric{Name: "host_steal_ratio", Value: stolenShare(b.cpu0, b.cpu1), Unit: "ratio", N: 1,
		Note: "share of the vCPUs' busy time the host took during the run"})

	if b.tr != nil {
		b.layerFigures(rp)
	}
	return rp
}

// layerFigures adds the per-layer figures and self times of a traced run.
func (b *bench) layerFigures(rp *report) {
	spans := b.tr.finished()
	r, s := b.res, b.serve
	spanMed := func(metricName, span string) {
		xs := durations(spans, span)
		rp.addLayer(metric{Name: metricName, Value: median(xs), Unit: "s", N: len(xs)})
	}
	sampleMed := func(name, unit, note string) {
		xs := append([]float64(nil), r.layers[name]...)
		rp.addLayer(metric{Name: name, Value: median(xs), Unit: unit, N: len(xs), Note: note})
	}
	dist := func(prefix string, xs []float64, p50 bool) {
		d := summarize(append([]float64(nil), xs...))
		if p50 {
			rp.addLayer(metric{Name: prefix + "_p50_ms", Value: d.P50, Unit: "ms", N: d.N})
		}
		rp.addLayer(metric{Name: prefix + "_p99_ms", Value: d.P99, Unit: "ms", N: d.N, Note: pct(d.P99Q)})
	}
	count := func(name string, v float64, n int) {
		rp.addLayer(metric{Name: name, Value: v, Unit: "count", N: n})
	}

	spanMed("world.build_s", "world.build")
	spanMed("traffic.matrix_s", "traffic.matrix")
	sampleMed("traffic.flows", "count", "")
	spanMed("cacheprobe.discovery_s", "cacheprobe.discovery")
	spanMed("cacheprobe.hitrates_s", "cacheprobe.hitrates")
	sampleMed("dnssim.probes", "count", "")
	sampleMed("dnssim.cache_hit_ratio", "ratio", "cache hits over dnssim.probes")
	sampleMed("cacheprobe.probe_us", "us", "discovery+hit-rate seconds over dnssim.probes")
	sampleMed("cacheprobe.found_per_kprobe", "found/kprobe", "prefixes found per 1000 discovery probes")
	spanMed("rootlogs.crawl_s", "rootlogs.crawl")
	spanMed("tlsscan.scan_s", "tlsscan.scan")
	spanMed("bgp.observed_s", "bgp.observed")
	spanMed("core.assemble_s", "core.assemble")
	spanMed("core.document_s", "core.document")
	spanMed("vantage.mesh_s", "vantage.mesh")
	sampleMed("vantage.pairs", "count", "agent-target probings")
	sampleMed("vantage.probes", "count", "traceroutes + pings")
	sampleMed("vantage.mesh_pairs", "count", "pairs materialized in the mesh")
	sampleMed("vantage.complete_ratio", "ratio", "complete pairs over vantage.mesh_pairs")
	spanMed("mapstore.append_s", "mapstore.append")
	spanMed("mapstore.encode_s", "mapstore.encode")
	sampleMed("mapstore.encoded_kb", "KB", "")
	sampleMed("mapstore.sections_shared", "count", "")
	spanMed("mapstore.decode_s", "mapstore.decode")
	spanMed("mapstore.recover_s", "mapstore.recover")
	count("recover.routes_identical", float64(b.probe.identical), 1)
	count("recover.routes_lost", float64(b.probe.lost), 1)
	count("recover.stale_304", float64(b.probe.stale304), 1)

	fs := b.fs
	fs.mu.Lock()
	writes, syncs, walBytes := append([]float64(nil), fs.writes...), append([]float64(nil), fs.syncs...), fs.bytes
	fs.mu.Unlock()
	rp.addLayer(metric{Name: "wal.write_ms", Value: median(writes), Unit: "ms", N: len(writes)})
	rp.addLayer(metric{Name: "wal.fsync_ms", Value: median(syncs), Unit: "ms", N: len(syncs)})
	rp.addLayer(metric{Name: "wal.kb", Value: float64(walBytes) / 1024, Unit: "KB", N: len(writes)})
	spanMed("wal.open_s", "wal.open")

	var late []float64
	for _, o := range s.open {
		late = append(late, ms(o.sent.Sub(o.due)))
	}
	count("gen.sent", float64(len(s.open)), len(s.open))
	dist("gen.late", late, false)

	dist("http.overhead", httpOverhead(spans), true)
	s.srv.mu.Lock()
	waits := append([]float64(nil), s.srv.waits...)
	queueMax := s.srv.queueMax
	handler := map[string][]float64{}
	var all []float64
	busy, total := map[string]float64{}, 0.0
	for route, xs := range s.srv.handler {
		handler[route] = append([]float64(nil), xs...)
		all = append(all, xs...)
		for _, x := range xs {
			busy[route] += x
			total += x
		}
	}
	s.srv.mu.Unlock()
	dist("admission.wait", waits, false)
	count("admission.shed", s.shed, len(waits))
	count("admission.queue_max", float64(queueMax), len(waits))
	dist("mapstore.handler", all, true)
	for _, route := range routes {
		dist("mapstore.route."+route, handler[route], false)
		rp.addLayer(metric{Name: "mapstore.route." + route + ".busy_share", Value: ratio(busy[route], total),
			Unit: "ratio", N: len(handler[route])})
	}

	var replies, cached, misses, notModified, bodyBytes float64
	for _, phase := range [][]outcome{s.open, s.closed} {
		for _, o := range phase {
			if o.err != nil {
				continue
			}
			replies++
			bodyBytes += float64(o.bytes)
			switch {
			case o.status == 304:
				notModified++
				cached++
			case o.xcache == "hit" || o.xcache == "store":
				cached++
			case o.xcache == "miss":
				misses++
			}
		}
	}
	n := int(replies)
	rp.addLayer(metric{Name: "mapstore.cache_hit_ratio", Value: ratio(cached, replies), Unit: "ratio", N: n,
		Note: "hit+store+304 over replies"})
	count("mapstore.cache_misses", misses, n)
	rp.addLayer(metric{Name: "mapstore.not_modified_ratio", Value: ratio(notModified, replies), Unit: "ratio", N: n})
	rp.addLayer(metric{Name: "mapstore.body_kb_per_req", Value: ratio(bodyBytes/1024, replies), Unit: "KB", N: n})
	appends, where := b.appendTimes()
	ap := summarize(appends)
	rp.addLayer(metric{Name: "mapstore.append_ms", Value: ap.P50, Unit: "ms", N: ap.N, Note: where})
	count("mapstore.epochs_appended", float64(len(s.appendMs)), len(s.appendMs))

	rp.addLayer(metric{Name: "runtime.alloc_kb_per_req", Value: ratio((s.alloc1.allocBytes-s.alloc0.allocBytes)/1024, replies),
		Unit: "KB", N: n, Note: "whole process, generator included"})
	epochAlloc := 0.0
	for _, a := range b.epochAlloc {
		epochAlloc += a
	}
	rp.addLayer(metric{Name: "runtime.alloc_mb_per_epoch", Value: ratio(epochAlloc/(1<<20), float64(len(b.epochAlloc))),
		Unit: "MB", N: len(b.epochAlloc)})
	count("runtime.gc_cycles", b.run1.gcCycles-b.run0.gcCycles, 1)
	pauses := summarize(gcPausesMs(b.run0, b.run1))
	rp.addLayer(metric{Name: "runtime.gc_pause_p99_ms", Value: pauses.P99, Unit: "ms", N: pauses.N,
		Note: pct(pauses.P99Q) + " of the run's last 256 pauses at most"})

	self := selfTimes(spans)
	counts := map[string]int{}
	for _, sp := range spans {
		counts[sp.Name]++
	}
	names := sortedKeys(self)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, name := range names {
		rp.self = append(rp.self, metric{Name: name, Value: self[name].Seconds(), Unit: "s", N: counts[name]})
	}
}

// appendTimes returns the durable append times ingest_p50_ms and
// mapstore.append_ms summarize, in ms, and which appends they are: those
// beside reads when the workload appends while serving, else the epoch
// appends of its build.
func (b *bench) appendTimes() ([]float64, string) {
	if len(b.serve.appendMs) > 0 {
		return append([]float64(nil), b.serve.appendMs...), "appends beside reads"
	}
	return append([]float64(nil), b.res.samples["epoch_append_ms"]...), "appends while building"
}

// windowLatencies groups the successful open-loop requests by the
// window of the phase their due time falls in, as latencies in ms.
func windowLatencies(outs []outcome, w time.Duration) [][]float64 {
	if len(outs) == 0 {
		return nil
	}
	start := outs[0].due
	var out [][]float64
	for _, o := range outs {
		if o.err != nil {
			continue
		}
		k := int(o.due.Sub(start) / w)
		for len(out) <= k {
			out = append(out, nil)
		}
		out[k] = append(out[k], ms(o.done.Sub(o.due)))
	}
	return out
}

// httpOverhead joins each request's client span with its admission span
// on the shared trace ID and returns client time minus server time, ms.
func httpOverhead(spans []spanRec) []float64 {
	client := map[string]time.Duration{}
	server := map[string]time.Duration{}
	for _, s := range spans {
		switch s.Name {
		case "gen.request":
			client[s.Trace] = s.dur()
		case "http.admission":
			server[s.Trace] = s.dur()
		}
	}
	var out []float64
	for id, c := range client {
		if sv, ok := server[id]; ok {
			out = append(out, ms(c-sv))
		}
	}
	return out
}

// save stores the end-to-end figures of an untraced run, which a traced
// run of the same workload and seed subtracts to report its overhead.
func (rp *report) save(path string) error {
	vals := map[string]float64{}
	for _, m := range rp.e2e {
		vals[m.Name] = m.Value
	}
	b, err := json.Marshal(vals)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// overhead adds, as "trace" rows, traced minus untraced end-to-end
// figures when an untraced run of the same workload and seed was saved.
func (rp *report) overhead(path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return // no untraced run to compare with
	}
	var vals map[string]float64
	if json.Unmarshal(raw, &vals) != nil {
		return
	}
	for _, m := range rp.e2e {
		if v, ok := vals[m.Name]; ok {
			rp.trace = append(rp.trace, metric{Name: m.Name + ".overhead", Value: m.Value - v, Unit: m.Unit, N: m.N,
				Note: "traced minus untraced"})
		}
	}
}
