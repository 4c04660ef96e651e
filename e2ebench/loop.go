package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"aim/internal/core"
	"aim/internal/runner"
	"aim/internal/serve"
)

// clients is how many load-generating goroutines (and, over HTTP,
// connections) a pass uses: one per CPU of the two-core machines the
// benchmark is sized for.
const clients = 2

// sample is one request as its client saw it.
type sample struct {
	cfg int
	// issued is when the request was due: its scheduled send time on
	// the open loop, the call time on a closed loop. sent is when an
	// HTTP request actually left; done is when its answer arrived.
	issued, sent, done time.Time
	// server is the server's own admission-to-answer latency; cached
	// reports whether the plan existed when the request's batch ran.
	server time.Duration
	cached bool
	// modelled is, on a traced request, the sum of the layers' isolated
	// costs laid into its serve span, before any scaling to fit.
	modelled time.Duration
	// refused marks a 429/503 admission refusal, err any other failure.
	refused bool
	err     error
	report  core.Report // in-process answers, without plan pointers
	net     string      // the in-process answer's network
	wire    wireAnswer  // HTTP answers
	http    bool
}

func (s *sample) ok() bool { return !s.refused && s.err == nil }

// front is a server behind a real loopback HTTP listener.
type front struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// listen puts srv behind an HTTP listener on a free loopback port.
func listen(srv *serve.Server) (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	//aimlint:allow no-naked-go — the HTTP accept loop; close stops it and waits for it
	go func() {
		defer close(f.done)
		_ = f.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return f, nil
}

// close stops the listener, waits for its accept loop, then closes the
// server.
func (f *front) close() {
	_ = f.hs.Close() // only reports the listener's close error; the accept loop's exit is awaited below
	<-f.done
	f.srv.Close()
}

// newHTTPClient keeps at most `clients` connections to the server.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// submitBody is the JSON body of a POST /v1/submit for r.
func submitBody(r serve.Request) []byte {
	body, _ := json.Marshal(map[string]any{ // a map of strings cannot fail to encode
		"network": r.Network, "mode": r.Mode.String(), "fidelity": r.Fidelity.String(),
	})
	return body
}

// post sends one submit and fills the sample's answer fields.
func post(client *http.Client, url string, body []byte, s *sample) {
	s.http = true
	resp, err := client.Post(url+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
		s.refused = true
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		s.err = json.Unmarshal(data, &s.wire)
		s.server = time.Duration(s.wire.LatencyMS * float64(time.Millisecond))
		s.cached = s.wire.PlanCached
	}
}

// healthy reports whether GET /v1/healthz answers 200.
func healthy(client *http.Client, url string) error {
	resp, err := client.Get(url + "/v1/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// submit makes one in-process Submit and fills a sample.
func submit(srv *serve.Server, req serve.Request, cfg int) sample {
	s := sample{cfg: cfg, issued: now()}
	resp, err := srv.Submit(context.Background(), req)
	s.done = now()
	s.sent = s.issued
	var ov *serve.OverloadError
	if errors.As(err, &ov) {
		s.refused = true
		return s
	}
	if s.err = err; err != nil {
		return s
	}
	s.report, s.server, s.cached = resp.Report, resp.Latency, resp.PlanCached
	// Drop the plan pointers: a kept sample must not keep every plan a
	// restarted server decoded alive.
	s.net = s.report.Net.Name
	s.report.Net, s.report.Baseline.Compiled, s.report.AIM.Compiled = nil, nil, nil
	return s
}

// pass is one measured window's samples.
type pass struct {
	samples    []sample
	start, end time.Time
}

// closedLoop runs `clients` closed-loop clients: each takes the next
// index of seq and calls do, which returns the sample, until seq is
// used up or stop, asked before each request with the number answered
// so far, says to stop.
func closedLoop(seq []int, stop func(answered int64) bool, do func(cfg int) sample) pass {
	var next, answered atomic.Int64
	per := make([][]sample, clients)
	p := pass{start: now()}
	_ = runner.Do(context.Background(), clients, clients, func(c int) error { // the closure never fails
		for !stop(answered.Load()) {
			i := int(next.Add(1) - 1)
			if i >= len(seq) {
				return nil
			}
			s := do(seq[i])
			if s.ok() {
				answered.Add(1)
			}
			per[c] = append(per[c], s)
		}
		return nil
	})
	p.end = now()
	for _, ss := range per {
		p.samples = append(p.samples, ss...)
	}
	return p
}

// window stops a closed loop once the window has passed and at least
// minN requests have answered, so the workload's tail percentile always
// rests on enough samples, but never later than three windows in.
func window(length time.Duration, minN int) func(answered int64) bool {
	start := now()
	soft, hard := start.Add(length), start.Add(3*length)
	return func(answered int64) bool {
		t := now()
		return t.After(hard) || (t.After(soft) && answered >= int64(minN))
	}
}

// drain serves every index of seq once (one compile-workload cycle, or
// a set-up).
func drain(seq []int, do func(cfg int) sample) []sample {
	return closedLoop(seq, func(int64) bool { return false }, do).samples
}

// openLoop sends requests at their scheduled offsets from the pass
// start, whatever the answers do, over `clients` connections. A send
// that finds both connections busy goes late; its latency still counts
// from the scheduled time, so the stall shows.
func openLoop(client *http.Client, url string, picks []int, offsets []time.Duration, bodies [][]byte, onDone func(*sample)) pass {
	samples := make([]sample, len(picks))
	var next atomic.Int64
	p := pass{start: now().Add(10 * time.Millisecond)}
	_ = runner.Do(context.Background(), clients, clients, func(int) error { // the closure never fails
		for {
			i := int(next.Add(1) - 1)
			if i >= len(samples) {
				return nil
			}
			s := &samples[i]
			s.cfg = picks[i]
			s.issued = p.start.Add(offsets[i])
			if d := s.issued.Sub(now()); d > 0 {
				time.Sleep(d)
			}
			s.sent = now()
			post(client, url, bodies[s.cfg], s)
			s.done = now()
			if onDone != nil {
				onDone(s)
			}
		}
	})
	p.end = now()
	p.samples = samples
	return p
}
