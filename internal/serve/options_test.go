package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"aim/internal/sim"
)

// TestOptionsValidate pins the construction contract: zero values are
// defaults, negative (or internally inconsistent) values are errors at
// New — never silently clamped into something that "works".
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		wantErr string // substring; "" means valid
	}{
		{name: "zero is valid", opt: Options{}},
		{name: "explicit values valid", opt: Options{Workers: 2, MaxBatch: 8, Queue: 16, RatePerClient: 4, Burst: 8, TargetP95: 50 * time.Millisecond}},
		{name: "rate without burst valid", opt: Options{RatePerClient: 2.5}},
		{name: "negative workers", opt: Options{Workers: -1}, wantErr: "negative workers"},
		{name: "negative max batch", opt: Options{MaxBatch: -4}, wantErr: "negative max batch"},
		{name: "negative queue", opt: Options{Queue: -256}, wantErr: "negative queue depth"},
		{name: "queue and workers at limit valid", opt: Options{Workers: 1 << 12, Queue: 1 << 20}},
		{name: "queue past limit", opt: Options{Queue: 1<<20 + 1}, wantErr: "queue depth 1048577 over the limit 1048576"},
		{name: "workers past limit", opt: Options{Workers: 1<<12 + 1}, wantErr: "workers 4097 over the limit 4096"},
		{name: "oversized queue", opt: Options{Queue: 1 << 62}, wantErr: "queue depth 4611686018427387904 over the limit"},
		{name: "negative rate", opt: Options{RatePerClient: -0.5}, wantErr: "negative per-client rate"},
		{name: "NaN rate", opt: Options{RatePerClient: math.NaN()}, wantErr: "non-finite per-client rate"},
		{name: "Inf rate", opt: Options{RatePerClient: math.Inf(1)}, wantErr: "non-finite per-client rate"},
		{name: "negative burst", opt: Options{RatePerClient: 1, Burst: -2}, wantErr: "negative rate-limit burst"},
		{name: "burst without rate", opt: Options{Burst: 8}, wantErr: "burst 8 without a per-client rate"},
		{name: "negative slo target", opt: Options{TargetP95: -time.Second}, wantErr: "negative SLO target"},
	}
	for _, c := range cases {
		err := c.opt.Validate()
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.wantErr)
		}
		// New must refuse the same options (construction, not first use).
		if s, err := New(c.opt); err == nil {
			s.Close()
			t.Errorf("%s: New accepted options Validate rejects", c.name)
		}
	}
}

// TestNewDefaults: zero options still construct a working server (the
// historical behaviour — zero means default, only negatives error).
func TestNewDefaults(t *testing.T) {
	s := newTestServer(t, Options{})
	defer s.Close()
	if s.opt.Workers <= 0 || s.opt.MaxBatch != 64 || s.opt.Queue != 256 {
		t.Errorf("defaults not applied: %+v", s.opt)
	}
	if s.limiter != nil {
		t.Error("limiter constructed without a rate")
	}
	if s.ladder.tier() != sim.SpatialPDN {
		t.Errorf("disabled ladder must hold the top tier, got %v", s.ladder.tier())
	}
}
