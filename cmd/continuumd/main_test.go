package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/fault"
)

// TestParseFlags: each flag reaches the endpoint's config or the
// process's, the name defaults to the listen address, -max-queue turns
// admission on with the flags that tune it, and a bad value or an
// unknown flag is an error (main exits 2) that names it.
func TestParseFlags(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		check  func(t *testing.T, c config)
		errHas string // non-empty: parsing must fail, saying this
	}{
		{name: "defaults", args: nil, check: func(t *testing.T, c config) {
			want := faas.EndpointConfig{
				Name: "127.0.0.1:9090", Capacity: 8,
				ColdStart: 2 * time.Millisecond, WarmTTL: time.Minute,
			}
			if !reflect.DeepEqual(c.endpoint, want) {
				t.Errorf("endpoint config %+v, want %+v", c.endpoint, want)
			}
			if c.listen != "127.0.0.1:9090" || c.metricsAddr != "" || c.chaos != "" ||
				c.grace != 10*time.Second || c.workers != 0 || c.traceBuf != 0 ||
				c.verbose || c.pprof || c.router != "" || c.advertise != "" {
				t.Errorf("defaults: %+v", c)
			}
		}},
		{name: "endpoint", args: []string{"-listen", "0.0.0.0:7000", "-name", "edge", "-capacity", "2", "-cold", "5ms",
			"-warm-ttl", "1s", "-queue-wait", "3ms", "-exec-timeout", "4s", "-hedge"},
			check: func(t *testing.T, c config) {
				want := faas.EndpointConfig{
					Name: "edge", Capacity: 2, ColdStart: 5 * time.Millisecond, WarmTTL: time.Second,
					QueueWait: 3 * time.Millisecond, ExecTimeout: 4 * time.Second, PreemptAbandoned: true,
				}
				if c.listen != "0.0.0.0:7000" || !reflect.DeepEqual(c.endpoint, want) {
					t.Errorf("listen %q, endpoint %+v, want %+v", c.listen, c.endpoint, want)
				}
			}},
		{name: "chaos", args: []string{"-chaos", "err=0.1,delay=20ms,delayp=0.3"}, check: func(t *testing.T, c config) {
			want := fault.ChaosSpec{ErrProb: 0.1, DelayMean: 20 * time.Millisecond, DelayProb: 0.3}
			if c.chaos != "err=0.1,delay=20ms,delayp=0.3" || c.chaosSpec != want {
				t.Errorf("chaos %q parsed to %+v, want %+v", c.chaos, c.chaosSpec, want)
			}
		}},
		{name: "chaos malformed", args: []string{"-chaos", "drop=lots"}, errHas: "-chaos"},
		{name: "max-queue", args: []string{"-max-queue", "64", "-target-queue-wait", "10ms", "-min-slots", "2", "-retry-after-floor", "7ms"},
			check: func(t *testing.T, c config) {
				want := faas.AdmissionConfig{Enabled: true, MaxQueue: 64, TargetQueueWait: 10 * time.Millisecond,
					MinSlots: 2, RetryAfterFloor: 7 * time.Millisecond}
				if c.endpoint.Admission != want {
					t.Errorf("admission %+v, want %+v", c.endpoint.Admission, want)
				}
			}},
		{name: "no max-queue", args: []string{"-min-slots", "2"}, check: func(t *testing.T, c config) {
			if a := c.endpoint.Admission; a.Enabled || a.MinSlots != 2 {
				t.Errorf("admission %+v, want it off with the floor kept", a)
			}
		}},
		{name: "router and advertise", args: []string{"-router", "10.0.0.1:9080", "-advertise", "10.0.0.2:9090"},
			check: func(t *testing.T, c config) {
				if c.router != "10.0.0.1:9080" || c.advertise != "10.0.0.2:9090" {
					t.Errorf("router %q, advertise %q", c.router, c.advertise)
				}
			}},
		{name: "serving", args: []string{"-metrics-addr", "127.0.0.1:9091", "-pprof", "-verbose", "-workers", "16", "-trace-buf", "128", "-grace", "2s"},
			check: func(t *testing.T, c config) {
				if c.metricsAddr != "127.0.0.1:9091" || !c.pprof || !c.verbose || c.workers != 16 || c.traceBuf != 128 || c.grace != 2*time.Second {
					t.Errorf("serving flags: %+v", c)
				}
			}},
		{name: "unknown flag", args: []string{"-frobnicate"}, errHas: "frobnicate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errOut bytes.Buffer
			c, err := parseFlags(tc.args, &errOut)
			if tc.errHas != "" {
				if err == nil {
					t.Fatalf("%v accepted", tc.args)
				}
				if !strings.Contains(errOut.String(), tc.errHas) {
					t.Fatalf("%v reported %q, which does not mention %q", tc.args, errOut.String(), tc.errHas)
				}
				return
			}
			if err != nil {
				t.Fatalf("%v: %v", tc.args, err)
			}
			tc.check(t, c)
		})
	}
}
