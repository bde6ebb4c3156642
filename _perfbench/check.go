package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"

	"itmap/internal/mapstore"
)

// replyChecker holds the serving correctness rules for the URLs one
// generator connection owns. Key-affinity routing gives every URL exactly
// one owner, so the per-URL state needs no lock.
type replyChecker struct {
	seed maphash.Seed
	// last is the ETag most recently served for each URL.
	last map[string]string
	// bodies fingerprints the body first served for each (URL, ETag).
	bodies map[[2]string]uint64
	// encoded returns epoch id's canonical ITMB bytes, which a binary
	// /v1/map reply must equal.
	encoded func(id int) ([]byte, bool)
}

func newReplyChecker(seed maphash.Seed, encoded func(int) ([]byte, bool)) *replyChecker {
	return &replyChecker{seed: seed, last: map[string]string{}, bodies: map[[2]string]uint64{}, encoded: encoded}
}

// observe checks one reply to url sent with If-None-Match inm. It returns
// nil when the reply is correct.
func (c *replyChecker) observe(url, inm string, status int, etag string, body []byte) error {
	switch status {
	case http.StatusNotModified:
		if inm == "" {
			return fmt.Errorf("%s: 304 without If-None-Match", url)
		}
		if inm != c.last[url] || etag != inm {
			return fmt.Errorf("%s: 304 for If-None-Match %s, ETag %s, last served %s", url, inm, etag, c.last[url])
		}
		return nil
	case http.StatusOK:
	default:
		return fmt.Errorf("%s: status %d", url, status)
	}
	if etag == "" {
		return fmt.Errorf("%s: 200 without ETag", url)
	}
	c.last[url] = etag
	sum := maphash.Bytes(c.seed, body)
	key := [2]string{url, etag}
	if prev, ok := c.bodies[key]; ok && prev != sum {
		return fmt.Errorf("%s: ETag %s served two different bodies", url, etag)
	}
	c.bodies[key] = sum
	if id, ok := binaryMapID(url); ok {
		want, ok := c.encoded(id)
		if !ok || !bytes.Equal(body, want) {
			return fmt.Errorf("%s: binary body (%d bytes) differs from Epoch.Encoded (%d bytes)", url, len(body), len(want))
		}
	}
	return nil
}

// binaryMapID parses "/v1/map/{id}?format=binary".
func binaryMapID(url string) (int, bool) {
	rest, ok := strings.CutPrefix(url, "/v1/map/")
	if !ok {
		return 0, false
	}
	id, ok := strings.CutSuffix(rest, "?format=binary")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(id)
	return n, err == nil
}

// storeEncoded looks epoch bytes up in a store's current snapshot.
func storeEncoded(st *mapstore.Store) func(int) ([]byte, bool) {
	return func(id int) ([]byte, bool) {
		e, ok := st.Epoch(id)
		if !ok {
			return nil, false
		}
		return e.Encoded, true
	}
}

// checkRoundTrip verifies an epoch's ITMB map and mesh bytes decode and
// re-encode to the same bytes, timing both codec directions.
func (b *bench) checkRoundTrip(e *mapstore.Epoch, parent uint64) {
	sp := b.tr.start("mapstore.decode", parent)
	doc, err := mapstore.DecodeDocument(e.Encoded)
	sp.end()
	if err != nil {
		b.res.check(false, "epoch %d: decode: %v", e.ID, err)
		return
	}
	sp = b.tr.start("mapstore.encode", parent)
	enc, err := mapstore.EncodeDocument(doc)
	sp.end()
	b.res.check(err == nil && bytes.Equal(enc, e.Encoded), "epoch %d: ITMB map bytes do not re-encode identically", e.ID)
	if e.MeshEncoded == nil {
		return
	}
	mesh, err := mapstore.DecodeMeshDocument(e.MeshEncoded)
	if err == nil {
		enc, err = mapstore.EncodeMeshDocument(mesh)
	}
	b.res.check(err == nil && bytes.Equal(enc, e.MeshEncoded), "epoch %d: ITMB mesh bytes do not re-encode identically", e.ID)
}

// probeResult is what recovery kept and lost, seen through the handler.
type probeResult struct {
	identical int // map routes with byte-identical bodies and ETags
	lost      int // routes the recovered store answers differently
	stale304  int // lost routes still answering 304 to the pre-crash ETag
}

// probeRecovery asks the original and the recovered store the same
// questions, in process through mapstore.NewHandler. Map routes must match
// exactly (a mismatch is a correctness failure); /v1/link, /v1/path and
// /v1/latency are not journaled, so what they lose is counted.
func (b *bench) probeRecovery(orig, rec *mapstore.Store) probeResult {
	var pr probeResult
	ho, hr := mapstore.NewHandler(orig), mapstore.NewHandler(rec)
	get := func(h http.Handler, url, inm string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, url, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	same := func(a, b *httptest.ResponseRecorder) bool {
		return a.Code == b.Code && a.Header().Get("ETag") == b.Header().Get("ETag") &&
			bytes.Equal(a.Body.Bytes(), b.Body.Bytes())
	}
	for _, url := range mapRoutes(orig) {
		ok := same(get(ho, url, ""), get(hr, url, ""))
		b.res.check(ok, "recovered store answers %s differently", url)
		if ok {
			pr.identical++
		}
	}
	for _, url := range unjournaledRoutes(orig) {
		o, r := get(ho, url, ""), get(hr, url, "")
		if same(o, r) {
			continue
		}
		pr.lost++
		if tag := o.Header().Get("ETag"); tag != "" && get(hr, url, tag).Code == http.StatusNotModified {
			pr.stale304++
		}
	}
	return pr
}

// mapRoutes lists the map-route URLs recovery must reproduce exactly.
func mapRoutes(st *mapstore.Store) []string {
	urls := []string{"/v1/top", "/v1/top?k=20"}
	es := st.Snapshot()
	for _, e := range es {
		id := strconv.Itoa(e.ID)
		urls = append(urls, "/v1/map/"+id, "/v1/map/"+id+"?format=binary", "/v1/top?epoch="+id)
		if e.ID > 0 {
			urls = append(urls, "/v1/diff/"+strconv.Itoa(e.ID-1)+"/"+id)
		}
	}
	for _, r := range es[len(es)-1].TopASes(8) {
		urls = append(urls, "/v1/as/"+strconv.FormatUint(uint64(r.ASN), 10))
	}
	return urls
}

// unjournaledRoutes lists the URLs whose answers depend on what the WAL
// does not journal: the epoch listing (mesh pair counts), link loads, and
// path and latency lookups over the latest epoch's worst mesh pairs and
// the links along their paths.
func unjournaledRoutes(st *mapstore.Store) []string {
	e := st.Latest()
	urls := []string{"/v1/epochs", "/v1/latency/top"}
	for _, p := range e.WorstMeshPairs(4) {
		pair := strconv.FormatUint(uint64(p.A), 10) + "/" + strconv.FormatUint(uint64(p.B), 10)
		urls = append(urls, "/v1/path/"+pair, "/v1/latency/"+pair)
		if doc, ok := e.MeshPair(p.A, p.B); ok && len(doc.Path) >= 2 {
			urls = append(urls, "/v1/link/"+strconv.FormatUint(uint64(doc.Path[0]), 10)+"/"+
				strconv.FormatUint(uint64(doc.Path[1]), 10))
		}
	}
	return urls
}
