package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzDecodeMutateRequest fuzzes the :mutate body decoder across its
// three wire forms (JSON envelope, bare mutation object, NDJSON stream)
// — the one parser that accepts arbitrary client bytes ahead of a
// durable write. No input may panic; rejected bodies must carry an error
// status; accepted batches must convert through toMutation without
// panicking.
func FuzzDecodeMutateRequest(f *testing.F) {
	f.Add(`{"mutations":[{"op":"insert","values":[0.5,0.5]},{"op":"delete","id":7}]}`, false)
	f.Add(`{"op":"update","id":3,"values":[0.25,0.75],"label":"x"}`, false)
	f.Add("{\"op\":\"insert\",\"values\":[0.1,0.9]}\n{\"op\":\"update\",\"id\":2,\"values\":[0.3,0.7]}\n", true)
	f.Add(`{"mutations":[]}`, false)
	f.Add(`{"mutations":[{"op":"insert","unknown_field":1}]}`, false)
	f.Add("not json at all", true)
	f.Fuzz(func(t *testing.T, body string, ndjson bool) {
		srv := &Server{} // decodeMutateRequest touches no server state
		req := httptest.NewRequest(http.MethodPost, "/v1/datasets/fuzz:mutate", strings.NewReader(body))
		if ndjson {
			req.Header.Set("Content-Type", "application/x-ndjson")
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		ops, ok := srv.decodeMutateRequest(rec, req)
		if !ok {
			if rec.Code < 400 {
				t.Fatalf("decoder rejected the body but wrote status %d", rec.Code)
			}
			return
		}
		for i, op := range ops {
			_, _ = op.toMutation(i) // validation errors fine, panics are not
		}
	})
}

// FuzzDecodeBatchRequest fuzzes the batch body decoder across its two
// wire forms (JSON envelope, NDJSON header plus item lines). No input may
// panic; rejected bodies must carry an error status; an accepted body has
// at most one parse error per item, each at a valid item index.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(`{"dataset":"d","k":3,"queries":[{"focal":1},{"focal_vector":[0.5,0.5],"k":2}]}`, false)
	f.Add("{\"dataset\":\"d\",\"k\":3}\n{\"focal\":1}\n{\"focal\":\"x\"}\n\n{\"focal_vector\":[0.1,0.9]}\n", true)
	f.Add("{\"dataset\":\"d\",\"queries\":[{\"focal\":1}]}\n{\"focal\":2}\n", true)
	f.Add(`{"dataset":"d","k":3,"zap":1}`, false)
	f.Add("", true)
	f.Add("not json at all", true)
	f.Fuzz(func(t *testing.T, body string, ndjson bool) {
		srv := &Server{} // decodeBatchRequest touches no server state
		req := httptest.NewRequest(http.MethodPost, "/v1/kspr:batch", strings.NewReader(body))
		if ndjson {
			req.Header.Set("Content-Type", "application/x-ndjson")
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		rec := httptest.NewRecorder()
		batch, parseErrs, ok := srv.decodeBatchRequest(rec, req)
		if !ok {
			if rec.Code < 400 {
				t.Fatalf("decoder rejected the body but wrote status %d", rec.Code)
			}
			return
		}
		items := len(batch.Queries)
		if len(parseErrs) > items {
			t.Fatalf("%d parse errors for %d items", len(parseErrs), items)
		}
		for i := range parseErrs {
			if i < 0 || i >= items {
				t.Fatalf("parse error at index %d of %d items", i, items)
			}
		}
	})
}
