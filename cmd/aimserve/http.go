package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"aim/internal/serve"
)

// clientRequest is the JSON body this command POSTs to /v1/submit.
// Field names mirror the server's wire format; zero values are
// omitted so the server applies its defaults.
type clientRequest struct {
	Network  string `json:"network"`
	Mode     string `json:"mode,omitempty"`
	Beta     int    `json:"beta,omitempty"`
	Bits     int    `json:"bits,omitempty"`
	Delta    int    `json:"delta,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
	Fidelity string `json:"fidelity,omitempty"`
	Client   string `json:"client,omitempty"`
}

// clientResponse is the slice of the server's answer the generator
// needs: which tier served and whether the plan was cached.
type clientResponse struct {
	Fidelity   string `json:"fidelity"`
	PlanCached bool   `json:"plan_cached"`
}

// wireFromRequest renders a serving request as the HTTP body.
func wireFromRequest(r serve.Request) clientRequest {
	c := clientRequest{
		Network: r.Network, Mode: r.Mode.String(),
		Beta: r.Beta, Bits: r.Bits, Delta: r.Delta,
		Seed: r.Seed, Parallel: r.Parallel,
	}
	if r.AdaptFidelity {
		c.Fidelity = "auto"
	} else {
		c.Fidelity = r.Fidelity.String()
	}
	return c
}

// shot is one request's client-side outcome.
type shot struct {
	status  int
	latency time.Duration
	tier    string
	err     error
}

// fire POSTs one request and records the outcome.
func fire(client *http.Client, url string, req serve.Request) shot {
	body, err := json.Marshal(wireFromRequest(req))
	if err != nil {
		return shot{err: err}
	}
	start := time.Now() //aimlint:allow no-wallclock — client-side latency measurement is the point of the load generator
	resp, err := client.Post(url+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return shot{err: err}
	}
	defer resp.Body.Close()
	s := shot{status: resp.StatusCode, latency: time.Since(start)} //aimlint:allow no-wallclock — same: measured round-trip latency
	if resp.StatusCode == http.StatusOK {
		var cr clientResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			s.err = err
			return s
		}
		s.tier = cr.Fidelity
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return s
}

// volley fires the request list at its arrival offsets (nil = all at
// once) and waits for every answer.
func volley(client *http.Client, url string, reqs []serve.Request, offsets []time.Duration) []shot {
	shots := make([]shot, len(reqs))
	start := time.Now() //aimlint:allow no-wallclock — anchors the deterministic arrival offsets to real time
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		//aimlint:allow no-naked-go — open-loop HTTP clients, one per in-flight request; they generate load, they are not simulation work
		go func(i int) {
			defer wg.Done()
			if offsets != nil {
				//aimlint:allow no-wallclock — paces arrivals against the volley start
				time.Sleep(offsets[i] - time.Since(start))
			}
			shots[i] = fire(client, url, reqs[i])
		}(i)
	}
	wg.Wait()
	return shots
}

// tally folds a volley into phase-level counters.
type tally struct {
	ok, shed, failed int
	latencies        []time.Duration
	tiers            map[string]int
}

func tallyShots(shots []shot) tally {
	t := tally{tiers: map[string]int{}}
	for _, s := range shots {
		switch {
		case s.err != nil:
			t.failed++
		case s.status == http.StatusOK:
			t.ok++
			t.latencies = append(t.latencies, s.latency)
			t.tiers[s.tier]++
		case s.status == http.StatusTooManyRequests:
			t.shed++
		default:
			t.failed++
		}
	}
	sortDurations(t.latencies)
	return t
}

// runAgainstTarget replays the deterministic request list against a
// live server over HTTP. 429 refusals count as shed load, not
// failures; results are load-dependent, so no aggregate report is
// rendered.
func runAgainstTarget(target string, reqs []serve.Request, offsets []time.Duration, stdout, stderr io.Writer) int {
	client := &http.Client{Timeout: 2 * time.Minute}
	wall := time.Now() //aimlint:allow no-wallclock — wall-clock run time of the volley, reported beside client-side percentiles
	t := tallyShots(volley(client, target, reqs, offsets))
	elapsed := time.Since(wall) //aimlint:allow no-wallclock — same measurement's other half

	fmt.Fprintf(stdout, "== AIM serving over HTTP: %d requests against %s ==\n", len(reqs), target)
	fmt.Fprintf(stdout, "  answered:  %d ok, %d shed (429), %d failed over %v\n",
		t.ok, t.shed, t.failed, elapsed.Round(time.Millisecond))
	if t.ok > 0 {
		fmt.Fprintf(stdout, "  latency:   p50 %v  p95 %v  p99 %v (client-side)\n",
			serve.Percentile(t.latencies, 0.50).Round(time.Millisecond),
			serve.Percentile(t.latencies, 0.95).Round(time.Millisecond),
			serve.Percentile(t.latencies, 0.99).Round(time.Millisecond))
		fmt.Fprintf(stdout, "  tiers:     %d analytic / %d packed / %d spatial\n",
			t.tiers["analytic"], t.tiers["packed"], t.tiers["spatial"])
	}
	if t.ok+t.shed > 0 {
		fmt.Fprintf(stdout, "  shed rate: %.1f%% of offered load\n",
			100*float64(t.shed)/float64(t.ok+t.shed))
	}
	if t.ok == 0 {
		fmt.Fprintf(stderr, "aimserve: no request succeeded against %s\n", target)
		return 1
	}
	return 0
}
