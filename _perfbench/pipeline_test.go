package main

import (
	"bytes"
	"testing"

	"itmap/internal/experiments"
	"itmap/internal/mapstore"
	"itmap/internal/world"
)

// TestPipelineMatchesEpochStoreBuild pins the benchmark's layer-by-layer
// flow to experiments.BuildEpochStoreMeshInto: the same world and days
// must give byte-identical epochs, ETags and mesh sections.
func TestPipelineMatchesEpochStoreBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two tiny-world epoch stores")
	}
	const days = 3
	w := world.Build(world.Tiny(5))
	want := mapstore.NewStore()
	if err := experiments.BuildEpochStoreMeshInto(want, w, days, workers, meshSpec); err != nil {
		t.Fatal(err)
	}

	b := newBench("refresh", 5, 1, true, t.TempDir())
	got := mapstore.NewStore()
	p := newPipeline(b, w, got)
	for d := 0; d < days; d++ {
		if _, err := p.epoch(d, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%d epochs, want %d", got.Len(), want.Len())
	}
	for i, we := range want.Snapshot() {
		ge := got.Snapshot()[i]
		if !bytes.Equal(ge.Encoded, we.Encoded) || ge.ETag != we.ETag {
			t.Errorf("epoch %d: map bytes or ETag differ", i)
		}
		if !bytes.Equal(ge.MeshEncoded, we.MeshEncoded) || ge.MeshETag != we.MeshETag {
			t.Errorf("epoch %d: mesh bytes or ETag differ", i)
		}
	}
	// The traced run recorded each layer under its epoch span.
	spans := b.tr.finished()
	parents := map[uint64]string{}
	for _, s := range spans {
		parents[s.ID] = s.Name
	}
	for _, name := range []string{"traffic.matrix", "cacheprobe.discovery", "cacheprobe.hitrates",
		"rootlogs.crawl", "tlsscan.scan", "bgp.observed", "core.assemble", "core.document",
		"vantage.mesh", "mapstore.append"} {
		found := false
		for _, s := range spans {
			if s.Name == name {
				found = true
				if p := parents[s.Parent]; p != "epoch.cold" && p != "epoch.warm" {
					t.Errorf("%s parented by %q", name, p)
				}
			}
		}
		if !found {
			t.Errorf("no %s span", name)
		}
	}
}
