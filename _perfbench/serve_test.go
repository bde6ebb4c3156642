package main

import (
	"hash/maphash"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// stallDoer answers every request at once with a fresh 200, except that
// the request for stallURL takes stall to answer.
type stallDoer struct {
	stallURL string
	stall    time.Duration
}

func (d *stallDoer) Do(r *http.Request) (*http.Response, error) {
	if r.URL.Path == d.stallURL {
		time.Sleep(d.stall)
	}
	h := http.Header{}
	h.Set("ETag", `"`+r.URL.Path+`"`)
	return &http.Response{StatusCode: 200, Header: h, Body: io.NopCloser(strings.NewReader("ok"))}, nil
}

func TestOpenLoopCountsStallFromDueTime(t *testing.T) {
	const (
		rate  = 1000.0 // one request due every millisecond
		n     = 200
		stall = 60 * time.Millisecond
	)
	// One connection owns every URL, so the stall blocks the requests
	// queued behind it.
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = request{url: "/r/" + strings.Repeat("x", i%3) + string(rune('a'+i%26)), conn: 0}
	}
	const stalled = 50
	reqs[stalled].url = "/stall"
	d := &stallDoer{stallURL: "/stall", stall: stall}
	cs := []*client{{d: d, check: newReplyChecker(maphash.MakeSeed(), nil)}, {d: d, check: newReplyChecker(maphash.MakeSeed(), nil)}}
	out := openLoop(cs, reqs, rate)

	for i, o := range out {
		if o.err != nil {
			t.Fatalf("request %d: %v", i, o.err)
		}
	}
	// The request due 1 ms after the stalled one could only be sent when
	// the stall ended: it is late by about the stall, and its latency,
	// timed from its due time, includes that wait.
	next := out[stalled+1]
	late := next.sent.Sub(next.due)
	if late < stall-5*time.Millisecond {
		t.Errorf("request after the stall was late by %v, want about %v", late, stall)
	}
	if lat := next.done.Sub(next.due); lat < late {
		t.Errorf("latency %v is shorter than the lateness %v", lat, late)
	}
	// The backlog drains: requests due well after the stall ended are
	// sent on time again.
	last := out[n-1]
	if l := last.sent.Sub(last.due); l > 20*time.Millisecond {
		t.Errorf("last request still late by %v", l)
	}
	// Latency counted from send time would hide the stall from every
	// queued request; from due time, at least ten of them see most of it.
	slow := 0
	for _, o := range out[stalled+1:] {
		if o.done.Sub(o.due) > stall/2 {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("only %d requests after the stall carry its wait", slow)
	}
}

func TestPlanMixIsSeededAndAffine(t *testing.T) {
	sh := storeShape{epochs: 3, ases: []uint32{10, 20, 30}, pairs: [][2]uint32{{1, 2}, {3, 4}}}
	a, b := planMix(7, 500, sh), planMix(7, 500, sh)
	routeSeen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between two plans of one seed", i)
		}
		if a[i].conn != connOf(a[i].url) {
			t.Fatalf("request %d not routed by its URL", i)
		}
		u := a[i].url
		path, query, _ := strings.Cut(u, "?")
		routeSeen[routeOf(path, query)] = true
	}
	for _, r := range routes {
		if !routeSeen[r] {
			t.Errorf("route %s never planned", r)
		}
	}
}

func TestPlanMixMeshShare(t *testing.T) {
	sh := storeShape{epochs: 3, ases: []uint32{10, 20, 30}, pairs: [][2]uint32{{1, 2}, {3, 4}}}
	const n = 30000
	mesh := 0
	for _, r := range planMix(11, n, sh) {
		path, query, _ := strings.Cut(r.url, "?")
		switch routeOf(path, query) {
		case "path", "latency", "latency_top":
			mesh++
		}
	}
	if share := float64(mesh) / n; share < 0.32 || share > 0.35 {
		t.Errorf("mesh share %.3f, want about %.3f", share, meshShare)
	}
	sh.pairs = nil
	for _, r := range planMix(11, 1000, sh) {
		if strings.HasPrefix(r.url, "/v1/path/") || strings.HasPrefix(r.url, "/v1/latency/") {
			t.Fatalf("%s planned on a store without mesh sections", r.url)
		}
	}
}
