package main

import (
	"hash/maphash"
	"strings"
	"testing"
)

func TestReplyCheckerCatchesPlantedFaults(t *testing.T) {
	epoch0 := []byte("ITMB epoch 0")
	encoded := func(id int) ([]byte, bool) { return epoch0, id == 0 }
	fresh := func() *replyChecker { return newReplyChecker(maphash.MakeSeed(), encoded) }

	t.Run("consistent replies pass", func(t *testing.T) {
		c := fresh()
		for _, step := range []struct {
			inm, etag string
			status    int
			body      string
		}{
			{"", `"a"`, 200, "body a"},
			{`"a"`, `"a"`, 304, ""},
			{"", `"a"`, 200, "body a"},
			{`"a"`, `"b"`, 200, "body b"}, // the URL's content moved on
			{`"b"`, `"b"`, 304, ""},
		} {
			if err := c.observe("/v1/top", step.inm, step.status, step.etag, []byte(step.body)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.observe("/v1/map/0?format=binary", "", 200, `"e0"`, epoch0); err != nil {
			t.Fatal(err)
		}
	})

	planted := []struct {
		name string
		want string
		run  func(c *replyChecker) error
	}{
		{"wrong body for a known ETag", "two different bodies", func(c *replyChecker) error {
			_ = c.observe("/v1/as/7", "", 200, `"a"`, []byte("right"))
			return c.observe("/v1/as/7", "", 200, `"a"`, []byte("wrong"))
		}},
		{"304 carrying another ETag", "304 for", func(c *replyChecker) error {
			_ = c.observe("/v1/as/7", "", 200, `"a"`, []byte("x"))
			return c.observe("/v1/as/7", `"a"`, 304, `"z"`, nil)
		}},
		{"304 for a stale ETag", "304 for", func(c *replyChecker) error {
			_ = c.observe("/v1/as/7", "", 200, `"a"`, []byte("x"))
			_ = c.observe("/v1/as/7", "", 200, `"b"`, []byte("y"))
			return c.observe("/v1/as/7", `"a"`, 304, `"a"`, nil)
		}},
		{"304 without If-None-Match", "without If-None-Match", func(c *replyChecker) error {
			return c.observe("/v1/top", "", 304, `"a"`, nil)
		}},
		{"binary body not Epoch.Encoded", "differs from Epoch.Encoded", func(c *replyChecker) error {
			return c.observe("/v1/map/0?format=binary", "", 200, `"e0"`, []byte("ITMB epoch 1"))
		}},
		{"error status", "status 500", func(c *replyChecker) error {
			return c.observe("/v1/top", "", 500, "", nil)
		}},
		{"200 without ETag", "without ETag", func(c *replyChecker) error {
			return c.observe("/v1/top", "", 200, "", []byte("x"))
		}},
	}
	for _, p := range planted {
		t.Run(p.name, func(t *testing.T) {
			err := p.run(fresh())
			if err == nil || !strings.Contains(err.Error(), p.want) {
				t.Fatalf("got %v, want an error containing %q", err, p.want)
			}
		})
	}
}

func TestBinaryMapID(t *testing.T) {
	for url, want := range map[string]int{"/v1/map/3?format=binary": 3, "/v1/map/12?format=binary": 12} {
		if id, ok := binaryMapID(url); !ok || id != want {
			t.Errorf("%s: %d %v", url, id, ok)
		}
	}
	for _, url := range []string{"/v1/map/3", "/v1/top", "/v1/map/x?format=binary"} {
		if _, ok := binaryMapID(url); ok {
			t.Errorf("%s parsed as a binary map URL", url)
		}
	}
}
