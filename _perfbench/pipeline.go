package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"itmap/internal/core"
	"itmap/internal/experiments"
	"itmap/internal/mapstore"
	"itmap/internal/mapstore/wal"
	"itmap/internal/measure/cacheprobe"
	"itmap/internal/measure/rootlogs"
	"itmap/internal/measure/tlsscan"
	obspkg "itmap/internal/obs"
	"itmap/internal/simtime"
	"itmap/internal/topology"
	"itmap/internal/traffic"
	"itmap/internal/vantage"
	"itmap/internal/world"
)

// workers bounds every parallel layer (matrix shards, probe sweeps, mesh
// shards): the benchmark is sized for a 2-core machine.
const workers = 2

// meshSpec is the vantage fleet each daily epoch runs, as itm-serve's
// -mesh-agents 64 with its default two rounds and no fault preset.
var meshSpec = experiments.MeshSpec{Agents: 64, Rounds: 2}

// pipeline runs one world's daily measurement campaigns into a store, the
// same flow as experiments.BuildEpochStoreMeshInto, but with each layer
// called on its own so the call can be timed. Day 0 is the cold epoch: it
// runs every campaign through the experiments.Env getters. Later days
// re-run only the day-dependent sweeps (discovery, root-log crawl, mesh)
// and reuse day 0's time-invariant artifacts, as experiments.EpochEnvs
// does.
type pipeline struct {
	b  *bench
	w  *world.World
	st *mapstore.Store

	// Day 0's artifacts, shared by later days.
	mx       *traffic.Matrix
	hr       *cacheprobe.HitRates
	scan     *tlsscan.Scan
	observed *topology.Topology

	// maps and meshes keep each day's assembled inputs, so later appends
	// can re-ingest them without measuring again.
	maps   []*core.TrafficMap
	meshes []*core.MeshDocument
}

func newPipeline(b *bench, w *world.World, st *mapstore.Store) *pipeline {
	vantage.RegisterMetrics()
	return &pipeline{b: b, w: w, st: st}
}

// dayAt is the simulated time of day d's sweep.
func dayAt(d int) simtime.Time { return simtime.Time(d) * simtime.Day }

// epoch measures day d and appends it durably. It returns the wall time
// from campaign start to the durable append.
func (p *pipeline) epoch(d int, parent uint64) (time.Duration, error) {
	tr, rs := p.b.tr, p.b.res
	name := "epoch.warm"
	if d == 0 {
		name = "epoch.cold"
	}
	obspkg.ActivateTrace("epoch-" + strconv.Itoa(d))
	start := time.Now()
	sp := tr.start(name, parent)
	id := sp.id()
	var m *core.TrafficMap
	if d == 0 {
		env := experiments.NewEnvFromWorld(p.w)
		env.MatrixWorkers = workers
		flows := obsTotal("itm_traffic_flows_total")
		p.mx = timed(tr, "traffic.matrix", id, env.Matrix)
		rs.layer("traffic.flows", obsTotal("itm_traffic_flows_total")-flows)

		probes, found := obsTotal("itm_dns_probes_total"), obsTotal("itm_probe_prefixes_found_total")
		hits := obsTotal("itm_dns_cache_hits_total")
		t0 := time.Now()
		timed(tr, "cacheprobe.discovery", id, env.Discovery)
		discProbes := obsTotal("itm_dns_probes_total") - probes
		rs.layer("cacheprobe.found_per_kprobe",
			ratio(obsTotal("itm_probe_prefixes_found_total")-found, discProbes)*1000)
		p.hr = timed(tr, "cacheprobe.hitrates", id, env.HitRates)
		sweep := time.Since(t0)
		n := obsTotal("itm_dns_probes_total") - probes
		rs.layer("dnssim.probes", n)
		rs.layer("dnssim.cache_hit_ratio", ratio(obsTotal("itm_dns_cache_hits_total")-hits, n))
		rs.layer("cacheprobe.probe_us", ratio(float64(sweep.Microseconds()), n))
		rs.counter("itm_dns_probes_total", n)

		timed(tr, "rootlogs.crawl", id, env.Crawl)
		p.scan = timed(tr, "tlsscan.scan", id, env.Scan)
		p.observed = timed(tr, "bgp.observed", id, env.Observed)
		m = timed(tr, "core.assemble", id, env.Map)
	} else {
		env := experiments.NewEnvFromWorld(p.w)
		env.MatrixWorkers = workers
		env.DiscoveryStart = dayAt(d)
		env.CrawlDayIndex = d
		disc := timed(tr, "cacheprobe.discovery", id, env.Discovery)
		crawl := timed(tr, "rootlogs.crawl", id, env.Crawl)
		m = timed(tr, "core.assemble", id, func() *core.TrafficMap {
			return core.BuildMap(mapInputs(p.w, disc, p.hr, crawl, p.scan, p.observed))
		})
	}
	var stats *vantage.Stats
	mesh := timed(tr, "vantage.mesh", id, func() *core.MeshDocument {
		mesh, st := experiments.RunMeshCampaign(p.w, meshSpec, dayAt(d), workers)
		stats = st
		return mesh
	})
	rs.layer("vantage.pairs", float64(stats.PairsMeasured))
	rs.layer("vantage.probes", float64(stats.Traceroutes+stats.Pings))
	rs.layer("vantage.mesh_pairs", float64(len(mesh.Pairs)))
	rs.layer("vantage.complete_ratio", completeRatio(mesh))
	if tr != nil {
		// Document runs again inside the append; timing it alone here is
		// the only way to see its share from outside the store.
		timed(tr, "core.document", id, m.Document)
	}
	p.maps = append(p.maps, m)
	p.meshes = append(p.meshes, mesh)
	t, err := p.append(dayAt(d), m, mesh, id)
	if err != nil {
		return 0, err
	}
	rs.sample("epoch_append_ms", ms(t))
	sp.end()
	return time.Since(start), nil
}

// append ingests one map+mesh durably and returns how long the durable
// append took.
func (p *pipeline) append(at simtime.Time, m *core.TrafficMap, mesh *core.MeshDocument, parent uint64) (time.Duration, error) {
	sp := p.b.tr.start("mapstore.append", parent)
	p.b.fs.within(sp.id())
	start := time.Now()
	e, err := p.st.AppendMapMesh(at, m, p.mx, mesh)
	d := time.Since(start)
	sp.end()
	if err != nil {
		return 0, err
	}
	p.b.res.layer("mapstore.encoded_kb", float64(len(e.Encoded))/1024)
	p.b.res.layer("mapstore.sections_shared", float64(e.SharedSections))
	p.b.res.counter("sections_shared", float64(e.SharedSections))
	return d, nil
}

// mapInputs is experiments.Env.Map's assembly input for one day's sweeps.
func mapInputs(w *world.World, disc *cacheprobe.Discovery, hr *cacheprobe.HitRates,
	crawl *rootlogs.Crawl, scan *tlsscan.Scan, observed *topology.Topology) core.BuildInputs {
	domains := w.Cat.ECSDomains()
	if len(domains) > 5 {
		domains = domains[:5]
	}
	return core.BuildInputs{
		Top:                 w.Top,
		Discovery:           disc,
		HitRates:            hr,
		RootCrawl:           crawl,
		PublicResolverOwner: w.PR.Owner,
		Scan:                scan,
		Auth:                w.Auth,
		PR:                  w.PR,
		MapDomains:          domains,
		Observed:            observed,
	}
}

// completeRatio is the share of the mesh's materialized pairs with a
// complete traceroute path.
func completeRatio(mesh *core.MeshDocument) float64 {
	n := 0
	for _, p := range mesh.Pairs {
		if p.Complete {
			n++
		}
	}
	return ratio(float64(n), float64(len(mesh.Pairs)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// obsTotal sums every series of one metric family in the default registry.
func obsTotal(family string) float64 {
	var sum float64
	obspkg.Metrics().Visit(func(name string, _ []obspkg.Label, v float64) {
		if name == family {
			sum += v
		}
	})
	return sum
}

// timedFS is the WAL's file system in traced runs: the real files, with
// every write, fsync and read timed as a span under the current append or
// recovery. A nil *timedFS stands for the plain OS file system.
type timedFS struct {
	wal.OSFS
	tr     *tracer
	parent atomic.Uint64

	mu     sync.Mutex
	writes []float64 // ms
	syncs  []float64 // ms
	bytes  int64
}

// within makes later file operations children of span id.
func (f *timedFS) within(id uint64) {
	if f != nil {
		f.parent.Store(id)
	}
}

// walFS is the value for wal.Options.FS.
func (f *timedFS) walFS() wal.FS {
	if f == nil {
		return nil
	}
	return f
}

func (f *timedFS) ReadFile(name string) ([]byte, error) {
	sp := f.tr.start("wal.read", f.parent.Load())
	b, err := f.OSFS.ReadFile(name)
	sp.end()
	return b, err
}

func (f *timedFS) OpenAppend(name string) (wal.File, error) {
	h, err := f.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, fs: f}, nil
}

func (f *timedFS) Create(name string) (wal.File, error) {
	h, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: h, fs: f}, nil
}

type timedFile struct {
	wal.File
	fs *timedFS
}

func (h *timedFile) Write(p []byte) (int, error) {
	sp := h.fs.tr.start("wal.write", h.fs.parent.Load())
	start := time.Now()
	n, err := h.File.Write(p)
	d := time.Since(start)
	sp.end()
	h.fs.mu.Lock()
	h.fs.writes = append(h.fs.writes, ms(d))
	h.fs.bytes += int64(n)
	h.fs.mu.Unlock()
	return n, err
}

func (h *timedFile) Sync() error {
	sp := h.fs.tr.start("wal.fsync", h.fs.parent.Load())
	start := time.Now()
	err := h.File.Sync()
	d := time.Since(start)
	sp.end()
	h.fs.mu.Lock()
	h.fs.syncs = append(h.fs.syncs, ms(d))
	h.fs.mu.Unlock()
	return err
}
