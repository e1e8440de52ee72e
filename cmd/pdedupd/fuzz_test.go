package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"probdedup/internal/shard"
)

// probeLine is a well-formed single-tuple body under testSchema.
const probeLine = `{"id":"probe","attrs":[[{"v":"Johnson"}],[{"v":"pilot"}]]}`

// postIngest serves one POST /v1/tuples on srv in process and decodes
// the reply, failing when the body is not exactly an ingestReply.
func postIngest(t *testing.T, srv *server, body []byte) (int, ingestReply) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/tuples", bytes.NewReader(body)))
	var reply ingestReply
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reply); err != nil {
		t.Fatalf("status %d: reply %q does not decode as ingestReply: %v", rec.Code, rec.Body.String(), err)
	}
	return rec.Code, reply
}

// FuzzIngestNDJSON posts arbitrary bodies to /v1/tuples on an in-process
// server over a fresh two-shard router. The handler must not panic, must
// answer with one of the ingest statuses the daemon documents and an
// ingestReply body, and must still accept a well-formed POST afterwards.
func FuzzIngestNDJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		router, err := shard.Open(shard.Config{Shards: 2, Schema: testSchema, Opts: refOptions(t)})
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		srv := newServer(router, false)

		switch code, reply := postIngest(t, srv, body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d (%+v) is not an ingest status", code, reply)
		}

		// Empty the queues, and retire the probe's ID in case the body
		// admitted it, so the probe can only fail if the server broke.
		if err := router.Drain(); err != nil {
			t.Fatal(err)
		}
		_ = router.Remove("probe") // ErrUnknownID unless the body admitted it
		if code, reply := postIngest(t, srv, []byte(probeLine)); code != http.StatusOK || reply.Accepted != 1 {
			t.Fatalf("well-formed POST after the fuzzed one: %d %+v", code, reply)
		}
	})
}
