package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeBody drives decodeLimited with arbitrary bodies and
// limits, sent with and without a Content-Length. Every call either
// decodes and writes nothing, or refuses with a 400 or 413 whose body
// is a JSON object carrying an "error" key; a body longer than the
// limit never decodes, and nothing panics.
func FuzzDecodeBody(f *testing.F) {
	f.Add([]byte(`{"edges":[[0,1],[2,3]]}`), uint16(64), false)
	f.Add([]byte(`{"edges":[[0,1],[2,3]]}`), uint16(8), false)
	f.Add([]byte(`{"edges":[[0,1]]}`+"   "), uint16(17), true)
	f.Add([]byte(`{"edges":[[0,1]]}{"edges":[]}`), uint16(18), true)
	f.Add([]byte(`{"edges":[[0,`), uint16(64), true)
	f.Add([]byte(`[1,2]`), uint16(64), false)
	f.Add([]byte{}, uint16(0), true)
	f.Fuzz(func(t *testing.T, body []byte, limitRaw uint16, streamed bool) {
		limit := int64(limitRaw % 512)
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		if streamed {
			req.ContentLength = -1
		}
		var v struct {
			Edges [][2]int `json:"edges"`
		}
		rec := httptest.NewRecorder()
		if decodeLimited(rec, req, &v, limit) {
			if int64(len(body)) > limit {
				t.Fatalf("a %d-byte body decoded under a %d-byte limit", len(body), limit)
			}
			if rec.Body.Len() != 0 {
				t.Fatalf("a decoded body wrote a response: %q", rec.Body.String())
			}
			return
		}
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("refused body answered %d, want 400 or 413", rec.Code)
		}
		var resp map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("error response is not JSON: %v (%q)", err, rec.Body.String())
		}
		if _, ok := resp["error"]; !ok {
			t.Fatalf("error response has no \"error\" key: %q", rec.Body.String())
		}
	})
}
