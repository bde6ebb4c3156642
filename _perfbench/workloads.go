package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"itmap/internal/mapstore"
	"itmap/internal/mapstore/wal"
	"itmap/internal/world"
)

// Workload sizes. Everything that scales with --seconds is a share of it.
const (
	// refreshWarmDays is how many daily epochs follow each cold epoch.
	refreshWarmDays = 4
	// refreshEpochShare is the share of the run spent repeating
	// world → cold epoch → warm epochs → recovery, at least
	// refreshMinReps times.
	refreshEpochShare = 0.65
	refreshMinReps    = 3
	// storeDays is the serving store's length, as itm-serve's -epochs 3.
	storeDays = 3
	// setupReps is how often browse and churn build the serving store;
	// setup_s is the median.
	setupReps = 5
	// recoverReps is how often each WAL is reopened and replayed;
	// recover_s is the median.
	recoverReps = 5
	// sloLimit is the latency limit serve_within_slo counts against.
	sloLimit = 20 * time.Millisecond
	// appendEvery is the cadence of appends beside reads (refresh, churn).
	appendEvery = 250 * time.Millisecond
)

// openRates is each workload's fixed open-loop request rate (requests/s),
// a fraction of what two connections sustain on its store: refresh serves
// the default-scale recovered store, whose map bodies are larger.
var openRates = map[string]float64{"refresh": 1000, "browse": 2000, "churn": 2000}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	rate     float64  // open-loop requests per second
	tr       *tracer  // nil when untraced
	fs       *timedFS // nil when untraced
	res      *result
	dir      string // run-private scratch directory

	serve      *serveStats
	epochAlloc []float64 // bytes allocated per epoch
	probe      probeResult
	heapMB     float64
	run0, run1 runtimeSample
	cpu0, cpu1 cpuTimes
}

func newBench(workload string, seed int64, seconds float64, traced bool, dir string) *bench {
	b := &bench{workload: workload, seed: seed, seconds: seconds, rate: openRates[workload], res: newResult(), dir: dir}
	if traced {
		b.tr = newTracer()
		b.fs = &timedFS{tr: b.tr}
	}
	return b
}

func (b *bench) run() error {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	b.run0, b.cpu0 = readRuntime(), readCPU()
	var err error
	switch b.workload {
	case "refresh":
		err = b.refresh()
	case "browse":
		err = b.browse(false)
	case "churn":
		err = b.browse(true)
	default:
		err = fmt.Errorf("unknown workload %q", b.workload)
	}
	b.run1, b.cpu1 = readRuntime(), readCPU()
	return err
}

func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * b.seconds * float64(time.Second))
}

// buildWorld builds a world inside a world.build span.
func (b *bench) buildWorld(cfg world.Config, parent uint64) *world.World {
	return timed(b.tr, "world.build", parent, func() *world.World { return world.Build(cfg) })
}

// openStore opens a fresh WAL under dir and attaches it to an empty store.
func (b *bench) openStore(dir string, parent uint64) (*mapstore.Store, *wal.WAL, error) {
	sp := b.tr.start("wal.open", parent)
	b.fs.within(sp.id())
	w, _, err := wal.Open(wal.Options{Dir: dir, FS: b.fs.walFS()})
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	st := mapstore.NewStore()
	st.AttachWAL(w)
	return st, w, nil
}

// epochs runs days [0, days) of p and records their times.
func (b *bench) epochs(p *pipeline, days int, parent uint64) error {
	for d := 0; d < days; d++ {
		a0 := allocBytes()
		c0 := readCPU()
		t, err := p.epoch(d, parent)
		c1 := readCPU()
		b.res.op(err)
		if err != nil {
			return err
		}
		b.epochAlloc = append(b.epochAlloc, allocBytes()-a0)
		if d == 0 {
			b.res.sample("epoch_cold_s", netOfSteal(t, c0, c1))
		} else {
			b.res.sample("epoch_warm_s", netOfSteal(t, c0, c1))
		}
	}
	return nil
}

// recover reopens the WAL under dir recoverReps times, each time timing
// wal.Open plus mapstore.RecoverStore, and probes the first recovered
// store against orig. It returns the last recovered store with its WAL
// still open.
func (b *bench) recover(dir string, orig *mapstore.Store, parent uint64) (*mapstore.Store, *wal.WAL, error) {
	var st *mapstore.Store
	var w *wal.WAL
	for i := 0; i < recoverReps; i++ {
		if w != nil {
			if err := w.Close(); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		start, c0 := time.Now(), readCPU()
		sp := b.tr.start("recover", parent)
		osp := b.tr.start("wal.open", sp.id())
		b.fs.within(osp.id())
		var rec *wal.Recovery
		var err error
		w, rec, err = wal.Open(wal.Options{Dir: dir, FS: b.fs.walFS()})
		osp.end()
		if err == nil {
			rsp := b.tr.start("mapstore.recover", sp.id())
			st, err = mapstore.RecoverStore(w, rec)
			rsp.end()
		}
		sp.end()
		b.res.op(err)
		if err != nil {
			return nil, nil, err
		}
		b.res.sample("recover_s", netOfSteal(time.Since(start), c0, readCPU()))
		if i == 0 {
			b.probe = b.probeRecovery(orig, st)
		}
	}
	return st, w, nil
}

// refresh repeats world → cold epoch → warm epochs (journaled, fsync) →
// recovery for its share of the run, then serves the last recovered
// store while the daily ingest goes on appending to it: a restarted
// itm-serve.
func (b *bench) refresh() error {
	start := time.Now()
	var st *mapstore.Store
	var w *wal.WAL
	var p *pipeline
	for rep := 0; rep < refreshMinReps || time.Since(start) < b.share(refreshEpochShare); rep++ {
		if w != nil {
			if err := w.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		sp := b.tr.start("refresh.rep", 0)
		t0, c0 := time.Now(), readCPU()
		wd := b.buildWorld(world.Default(b.seed), sp.id())
		b.res.sample("setup_s", netOfSteal(time.Since(t0), c0, readCPU()))
		dir := filepath.Join(b.dir, "refresh-"+strconv.Itoa(rep))
		orig, ow, err := b.openStore(dir, sp.id())
		if err != nil {
			return err
		}
		p = newPipeline(b, wd, orig)
		if err := b.epochs(p, 1+refreshWarmDays, sp.id()); err != nil {
			return err
		}
		for _, e := range orig.Snapshot() {
			b.checkRoundTrip(e, sp.id())
		}
		if err := ow.Close(); err != nil {
			return err
		}
		st, w, err = b.recover(dir, orig, sp.id())
		if err != nil {
			return err
		}
		sp.end()
		b.res.endRep()
	}
	p.st = st
	err := b.serveStore(st, p, b.share(0.35), b.share(0.3))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return err
}

// browse builds the serving store setupReps times (itm-serve boot with a
// 64-agent mesh, journaled), then serves it: an untimed warm-up pass, an
// open loop at openRates[workload] and a closed loop at two connections. With churn
// it also appends epochs at a fixed cadence beside the reads.
func (b *bench) browse(churn bool) error {
	var p *pipeline
	var w *wal.WAL
	var dir string
	for i := 0; i < setupReps; i++ {
		if w != nil {
			if err := w.Close(); err != nil {
				return err
			}
		}
		runtime.GC()
		sp := b.tr.start("setup", 0)
		t0, c0 := time.Now(), readCPU()
		wd := b.buildWorld(world.Small(b.seed), sp.id())
		dir = filepath.Join(b.dir, "store-"+strconv.Itoa(i))
		st, sw, err := b.openStore(dir, sp.id())
		if err != nil {
			return err
		}
		w = sw
		p = newPipeline(b, wd, st)
		if err := b.epochs(p, storeDays, sp.id()); err != nil {
			return err
		}
		b.res.sample("setup_s", netOfSteal(time.Since(t0), c0, readCPU()))
		sp.end()
		for _, e := range st.Snapshot() {
			b.checkRoundTrip(e, 0)
		}
		b.res.endRep()
	}
	var appendP *pipeline
	if churn {
		appendP = p
	}
	err := b.serveStore(p.st, appendP, b.share(0.4), b.share(0.6))
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	rst, rw, err := b.recover(dir, p.st, 0)
	if err != nil {
		return err
	}
	runtime.KeepAlive(rst)
	return rw.Close()
}
