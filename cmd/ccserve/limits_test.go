package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	pramcc "repro"
)

// repeater yields its pattern over and over, so a test can stream a
// request body of any size without holding it in memory.
type repeater struct {
	pattern string
	off     int
}

func (r *repeater) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = r.pattern[r.off]
		r.off = (r.off + 1) % len(r.pattern)
	}
	return len(p), nil
}

// streamedIngest returns a POST of a valid {"edges":[[0,1],…]}
// document just over size bytes, generated as it is read and sent
// without a Content-Length: only the read cap can stop it from being
// ingested.
func streamedIngest(target string, size int64) *http.Request {
	const edge = ",[0,1]"
	body := io.MultiReader(
		strings.NewReader(`{"edges":[[0,1]`),
		io.LimitReader(&repeater{pattern: edge}, (size/int64(len(edge))+1)*int64(len(edge))),
		strings.NewReader("]}"))
	req := httptest.NewRequest(http.MethodPost, target, body)
	req.ContentLength = -1
	return req
}

// declaredIngest returns a POST of a small valid ingest body whose
// Content-Length claims more than maxBodyBytes: only the up-front
// length check can stop it from being ingested.
func declaredIngest(target string) *http.Request {
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(`{"edges":[[0,1]]}`))
	req.ContentLength = maxBodyBytes + 1
	return req
}

// expect413 checks that rec holds a JSON 413.
func expect413(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413 (%s)", rec.Code, rec.Body.String())
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("413 body is not a JSON error: %v", err)
	}
}

// serve runs req through h and returns the recorded response.
func serve(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestOversizedBody413: a POST body over maxBodyBytes is refused with a
// JSON 413 in single-service and sharded mode alike, and none of its
// edges are ingested. The same small body under an honest length is
// then accepted, so the refusal came from the length alone.
func TestOversizedBody413(t *testing.T) {
	const small = `{"edges":[[0,1]]}`
	t.Run("single", func(t *testing.T) {
		sv, err := pramcc.NewService(4, pramcc.WithBackend(pramcc.BackendIncremental))
		if err != nil {
			t.Fatal(err)
		}
		defer sv.Close()
		h := newHandler(sv)
		expect413(t, serve(h, declaredIngest("/v1/ingest")))
		if sv.NumComponents() != 4 || sv.SameComponent(0, 1) {
			t.Fatal("edges of a refused body were ingested")
		}
		rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(small)))
		if rec.Code != http.StatusOK || !sv.SameComponent(0, 1) {
			t.Fatalf("honest ingest: status %d (%s)", rec.Code, rec.Body.String())
		}
	})
	t.Run("sharded", func(t *testing.T) {
		rt, err := pramcc.NewRouter(pramcc.RouterConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		tn, err := rt.CreateTenant("acme", 4)
		if err != nil {
			t.Fatal(err)
		}
		h := newRouterHandler(rt)
		expect413(t, serve(h, declaredIngest("/v1/t/acme/ingest")))
		if tn.NumComponents() != 4 || tn.SameComponent(0, 1) || tn.Stats().IngestedSpans != 0 {
			t.Fatal("edges of a refused body were ingested")
		}
		rec := serve(h, httptest.NewRequest(http.MethodPost, "/v1/t/acme/ingest", strings.NewReader(small)))
		if rec.Code != http.StatusOK || !tn.SameComponent(0, 1) {
			t.Fatalf("honest ingest: status %d (%s)", rec.Code, rec.Body.String())
		}
	})
}

// TestStreamedBodyCap: a body sent without a Content-Length is cut off
// by the read cap itself and answered 413, with nothing decoded into
// the request. A small limit stands in for maxBodyBytes, which would
// make the decoder buffer 64 MiB.
func TestStreamedBodyCap(t *testing.T) {
	const limit = 4 << 10
	var req struct {
		Edges [][2]int `json:"edges"`
	}
	rec := httptest.NewRecorder()
	if decodeLimited(rec, streamedIngest("/v1/ingest", limit), &req, limit) {
		t.Fatal("a body over the limit was decoded")
	}
	expect413(t, rec)
	if len(req.Edges) != 0 {
		t.Fatalf("%d edges decoded from a refused body", len(req.Edges))
	}
	// Just under the limit, the same stream decodes in full.
	if !decodeLimited(httptest.NewRecorder(), streamedIngest("/v1/ingest", limit-64), &req, limit) {
		t.Fatal("a body under the limit was refused")
	}
	if len(req.Edges) < (limit-64)/6 {
		t.Fatalf("decoded %d edges, want the whole stream", len(req.Edges))
	}
}

// TestNewServerTimeouts: both modes' servers come from newServer, which
// must set every request timeout.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server timeouts not set: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}
}
