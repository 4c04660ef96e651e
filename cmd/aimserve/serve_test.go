package main

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"
)

func TestNewHTTPServerSetsReadTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Fatalf("timeouts: header %v, read %v, idle %v; want all positive",
			s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("write timeout = %v, want unset (spatial answers are slow)", s.WriteTimeout)
	}
}

// A client that sends half a request header and then stalls must be
// disconnected once the header timeout elapses, not held forever.
func TestStalledHeaderIsDisconnected(t *testing.T) {
	const headerTimeout = 100 * time.Millisecond
	ts := httptest.NewUnstartedServer(http.NotFoundHandler())
	ts.Config = newHTTPServer(http.NotFoundHandler())
	ts.Config.ReadHeaderTimeout = headerTimeout
	ts.Start()
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/submit HTTP/1.1\r\nHost: aim\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	// The deadline is the test's own safety net: hitting it means the
	// server never dropped the connection.
	conn.SetReadDeadline(start.Add(10 * time.Second))
	buf := make([]byte, 512)
	for {
		_, err = conn.Read(buf)
		if err != nil {
			break
		}
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled client still connected after %v", time.Since(start))
	}
	if elapsed := time.Since(start); elapsed < headerTimeout/2 {
		t.Errorf("connection closed after %v, before the %v header timeout", elapsed, headerTimeout)
	}
}
