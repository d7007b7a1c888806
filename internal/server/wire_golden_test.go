package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// goldenWirePath holds the recorded responses of TestWireGolden. Delete it
// and re-run the test to record a new one (the run then fails, so a
// regenerated golden is always reviewed before it is committed).
var goldenWirePath = filepath.Join("testdata", "wire.golden")

// timingField matches the response fields that measure wall time: the
// only values the golden masks.
var timingField = regexp.MustCompile(`"(elapsed_ms|probe_ns)":( ?)[-+0-9.eE]+`)

// wireCase is one recorded request. statusOnly cases pin the status code
// but not the body (error messages free to change wording).
type wireCase struct {
	name        string
	method      string
	path        string
	contentType string
	body        string
	statusOnly  bool
}

// TestWireGolden pins the wire format of every query endpoint on a fixed
// dataset: status codes and response bodies, byte for byte apart from
// the timing fields. The case order is part of the fixture — later cases
// observe the cache state earlier ones leave behind.
func TestWireGolden(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 32})
	loadGenerated(t, ts, "w", 100, 3, 11)
	snap, _ := srv.Registry().Get("w")
	band := snap.DB.KSkyband(3)
	f0, f1, f2 := band[0], band[1], band[2]

	post := func(name, path, body string) wireCase {
		return wireCase{name: name, method: http.MethodPost, path: path, contentType: "application/json", body: body}
	}
	get := func(name, path string) wireCase {
		return wireCase{name: name, method: http.MethodGet, path: path}
	}
	status := func(c wireCase) wireCase { c.statusOnly = true; return c }
	q := func(format string, args ...any) string { return fmt.Sprintf(format, args...) }

	cases := []wireCase{
		post("kspr miss", "/v1/kspr", q(`{"dataset":"w","focal":%d,"k":3}`, f0)),
		post("kspr hit", "/v1/kspr", q(`{"dataset":"w","focal":%d,"k":3}`, f0)),
		get("kspr get hit", q("/v1/kspr?dataset=w&focal=%d&k=3", f0)),
		post("kspr cta volumes", "/v1/kspr", q(`{"dataset":"w","focal":%d,"k":3,"algorithm":"cta","volumes":true,"volume_samples":2000,"seed":3}`, f1)),
		get("kspr get no geometry", q("/v1/kspr?dataset=w&focal=%d&k=2&no_geometry=true&bounds=group", f2)),
		post("kspr approx", "/v1/kspr", q(`{"dataset":"w","focal":%d,"k":3,"algorithm":"approx","epsilon":0.05}`, f0)),
		post("kspr focal vector", "/v1/kspr", `{"dataset":"w","focal_vector":[0.9,0.9,0.9],"k":2}`),
		post("batch envelope", "/v1/kspr:batch", q(`{"dataset":"w","k":3,"queries":[{"focal":%d},{"focal":%d},{"focal_vector":[0.5,0.5,0.5],"k":1},{"focal":-1}]}`, f0, f2)),
		{name: "batch ndjson", method: http.MethodPost, path: "/v1/kspr:batch", contentType: "application/x-ndjson",
			body: q(`{"dataset":"w","k":2}`+"\n"+`{"focal":%d}`+"\n"+`{"focal":"x"}`+"\n"+`{"focal":%d,"k":0}`+"\n", f1, f2)},
		post("batch approx", "/v1/kspr:batch", q(`{"dataset":"w","k":3,"algorithm":"approx","epsilon":0.05,"queries":[{"focal":%d},{"focal":%d}]}`, f0, f1)),
		post("topk", "/v1/topk", `{"dataset":"w","weights":[0.5,0.3,0.2],"k":5}`),
		get("skyline", "/v1/skyline?dataset=w"),
		get("skyband", "/v1/skyline?dataset=w&k=2"),
		post("impact", "/v1/impact", q(`{"dataset":"w","focal":%d,"k":3,"samples":5000,"seed":2}`, f0)),
		post("impact dirichlet", "/v1/impact", q(`{"dataset":"w","focal":%d,"k":3,"samples":5000,"seed":2,"density":{"name":"dirichlet","alpha":[2,2,2]}}`, f1)),
		get("competitors miss", q("/v1/impact:competitors?dataset=w&focal=%d&k=3&samples=2000&seed=2", f0)),
		get("competitors hit", q("/v1/impact:competitors?dataset=w&focal=%d&k=3&samples=2000&seed=2", f0)),
		post("price miss", "/v1/whatif:price", q(`{"dataset":"w","focal":%d,"k":3,"attr":0,"target":0.6,"eps":0.001,"samples":2000,"seed":5}`, f0)),
		post("price hit", "/v1/whatif:price", q(`{"dataset":"w","focal":%d,"k":3,"attr":0,"target":0.6,"eps":0.001,"samples":2000,"seed":5}`, f0)),
		post("price unreachable", "/v1/whatif:price", q(`{"dataset":"w","focal":%d,"k":3,"attr":0,"target":0.99,"max_delta":1e-9,"samples":2000,"seed":5}`, f0)),
		post("price unreachable cached", "/v1/whatif:price", q(`{"dataset":"w","focal":%d,"k":3,"attr":0,"target":0.99,"max_delta":1e-9,"samples":2000,"seed":5}`, f0)),
		post("frontier miss", "/v1/whatif:frontier", q(`{"dataset":"w","focal":%d,"k":3,"attr":0,"min":0.01,"max":1.2,"steps":4,"samples":1500,"seed":3}`, f2)),
		post("frontier hit", "/v1/whatif:frontier", q(`{"dataset":"w","focal":%d,"k":3,"attr":0,"min":0.01,"max":1.2,"steps":4,"samples":1500,"seed":3}`, f2)),

		// Error paths: the status is the contract, the message is not.
		status(post("kspr unknown dataset", "/v1/kspr", `{"dataset":"nope","focal":1,"k":3}`)),
		status(post("kspr bad k", "/v1/kspr", `{"dataset":"w","focal":1,"k":0}`)),
		status(post("kspr unknown field", "/v1/kspr", `{"dataset":"w","focal":1,"k":3,"zap":1}`)),
		status(post("kspr approx original", "/v1/kspr", `{"dataset":"w","focal":1,"k":3,"algorithm":"approx","space":"original"}`)),
		status(get("kspr get bad int", "/v1/kspr?dataset=w&focal=1&k=x")),
		status(get("kspr get unknown dataset", "/v1/kspr?dataset=nope&focal=1&k=3")),
		status(post("batch empty", "/v1/kspr:batch", `{"dataset":"w","k":3,"queries":[]}`)),
		status(post("batch unknown dataset", "/v1/kspr:batch", `{"dataset":"nope","k":3,"queries":[{"focal":1}]}`)),
		status(post("batch bad space", "/v1/kspr:batch", `{"dataset":"w","k":3,"space":"zap","queries":[{"focal":1}]}`)),
		status(post("topk bad weights", "/v1/topk", `{"dataset":"w","weights":[1],"k":5}`)),
		status(post("topk bad k", "/v1/topk", `{"dataset":"w","weights":[0.5,0.3,0.2],"k":0}`)),
		status(get("skyline unknown dataset", "/v1/skyline?dataset=nope")),
		status(get("skyline k zero", "/v1/skyline?dataset=w&k=0")),
		status(get("skyline bad k", "/v1/skyline?dataset=w&k=x")),
		status(post("impact approx", "/v1/impact", q(`{"dataset":"w","focal":%d,"k":3,"algorithm":"approx"}`, f0))),
		status(post("impact bad density", "/v1/impact", q(`{"dataset":"w","focal":%d,"k":3,"density":{"name":"zap"}}`, f0))),
		status(get("competitors missing focal", "/v1/impact:competitors?dataset=w&k=3")),
		status(get("competitors bad k", "/v1/impact:competitors?dataset=w&focal=1&k=0")),
		status(get("competitors unknown dataset", "/v1/impact:competitors?dataset=nope&focal=1&k=3")),
		status(get("competitors approx", "/v1/impact:competitors?dataset=w&focal=1&k=3&algorithm=approx")),
		status(post("price bad k", "/v1/whatif:price", `{"dataset":"w","focal":1,"k":0,"target":0.5}`)),
		status(post("frontier too many steps", "/v1/whatif:frontier", `{"dataset":"w","focal":1,"k":3,"steps":1000}`)),

		// A mutation migrates the unaffected cached results to the new
		// generation; the repeat query is then a hit at that generation.
		post("mutate interior insert", "/v1/datasets/w:mutate", `{"op":"insert","values":[0.01,0.01,0.01]}`),
		post("kspr hit after migration", "/v1/kspr", q(`{"dataset":"w","focal":%d,"k":3}`, f0)),
	}

	var got bytes.Buffer
	for _, c := range cases {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		if c.contentType != "" {
			req.Header.Set("Content-Type", c.contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "### %s\n%s %s\nstatus %d\n", c.name, c.method, c.path, resp.StatusCode)
		if c.statusOnly {
			continue
		}
		if strings.Contains(resp.Header.Get("Content-Type"), "ndjson") {
			raw = sortBatchLines(t, raw)
		}
		got.Write(timingField.ReplaceAll(raw, []byte(`"$1":${2}0`)))
	}

	want, err := os.ReadFile(goldenWirePath)
	if os.IsNotExist(err) {
		if err := os.WriteFile(goldenWirePath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s; review and commit it, then re-run", goldenWirePath)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("wire format drifted from %s at line %d:\n got: %s\nwant: %s", goldenWirePath, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("wire format drifted from %s: got %d lines, want %d", goldenWirePath, len(gotLines), len(wantLines))
	}
}

// sortBatchLines orders a batch stream by item index: the stream order of
// computed items is completion order, which the golden must not depend on.
func sortBatchLines(t *testing.T, raw []byte) []byte {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	idx := make([]int, len(lines))
	for i, l := range lines {
		var head struct {
			Index int `json:"index"`
		}
		if err := json.Unmarshal(l, &head); err != nil {
			t.Fatalf("bad batch line %q: %v", l, err)
		}
		idx[i] = head.Index
	}
	order := make([]int, len(lines))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return idx[order[a]] < idx[order[b]] })
	var out bytes.Buffer
	for _, i := range order {
		out.Write(lines[i])
		out.WriteByte('\n')
	}
	return out.Bytes()
}
