package main

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"failscope/internal/telemetry"
)

// oversizedBatch is a well-formed JSONL body just past maxBatchBytes.
func oversizedBatch() []byte {
	line := []byte(`{"type":"advance","time":"2012-08-01T00:00:00Z"}` + "\n")
	return bytes.Repeat(line, maxBatchBytes/len(line)+1)
}

// TestOversizedBatchRefused posts a body over the cap twice — once with a
// Content-Length, once chunked so the cap trips mid-read — and requires a
// 413 each time, the too_large counter, and nothing applied.
func TestOversizedBatchRefused(t *testing.T) {
	srv, eng := testServer(t)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	body := oversizedBatch()
	for name, rd := range map[string]io.Reader{
		"content-length": bytes.NewReader(body),
		"chunked":        io.MultiReader(bytes.NewReader(body)), // hides the length
	} {
		res, err := http.Post(ts.URL+"/v1/events", "application/jsonl", rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msg, _ := io.ReadAll(res.Body)
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status = %d (%s), want 413", name, res.StatusCode, msg)
		}
	}
	if seq := eng.Seq(); seq != 0 {
		t.Fatalf("engine seq = %d after refused batches, want 0", seq)
	}

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseMetrics(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/metrics not conformant: %v", err)
	}
	if got := fams.Value("serve_rejected_batches_total", "reason", "too_large"); got != 2 {
		t.Errorf("serve_rejected_batches_total{reason=too_large} = %v, want 2", got)
	}

	// A batch under the cap still goes through.
	res, err = http.Post(ts.URL+"/v1/events", "application/jsonl", strings.NewReader(testBatch(t)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("small batch after refusals: status %d", res.StatusCode)
	}
}

// TestSlowHeaderClientCutOff opens a connection, sends half a request
// header and stalls: the server must close the connection once the
// header timeout passes instead of holding it open. The header timeout is
// shortened so the test is quick; the whole-request timeout is not, so
// only the header timeout can cut the client off in time.
func TestSlowHeaderClientCutOff(t *testing.T) {
	srv, _ := testServer(t)
	hs := newHTTPServer(srv)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("daemon server timeouts not all set: header %v, read %v, idle %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.IdleTimeout)
	}
	hs.ReadHeaderTimeout = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(l)
	defer hs.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/events HTTP/1.1\r\nHost: failscoped\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = bufio.NewReader(conn).ReadByte()
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v: header timeout not enforced", time.Since(start))
	}
	if err == nil {
		t.Fatal("server answered an incomplete request")
	}
}
