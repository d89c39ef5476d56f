package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"continuum/internal/federation"
	"continuum/internal/retry"
	"continuum/internal/wire"
)

// flagCase is one command line and what parseFlags must make of it.
type flagCase struct {
	name   string
	args   []string
	check  func(t *testing.T, c config)
	errHas string // non-empty: parsing must fail, saying this
}

// TestParseFlags: every routing policy name and -hedge form reaches the
// router's config, a bad value is an error (main exits 2) that names
// the flag, and an empty command line gives the documented defaults.
func TestParseFlags(t *testing.T) {
	cases := []flagCase{
		{name: "defaults", args: nil, check: func(t *testing.T, c config) {
			want := federation.RouterConfig{
				Policy: federation.HashPolicy{},
				Client: wire.ReliableConfig{
					Retry: retry.Policy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 250 * time.Millisecond},
				},
			}
			if !reflect.DeepEqual(c.router, want) {
				t.Errorf("router config %+v, want %+v", c.router, want)
			}
			if c.listen != "127.0.0.1:9080" || c.policyName != "hash" || c.metricsAddr != "" ||
				c.grace != 10*time.Second || c.workers != 0 || c.traceBuf != 0 || c.verbose || c.pprof {
				t.Errorf("defaults: %+v", c)
			}
		}},
		{name: "hedge auto", args: []string{"-hedge", "auto"}, check: func(t *testing.T, c config) {
			if c.router.Client.Hedge != (wire.HedgeConfig{Enabled: true}) {
				t.Errorf("hedge %+v, want enabled with a derived delay", c.router.Client.Hedge)
			}
		}},
		{name: "hedge fixed", args: []string{"-hedge", "5ms"}, check: func(t *testing.T, c config) {
			if c.router.Client.Hedge != (wire.HedgeConfig{Enabled: true, Delay: 5 * time.Millisecond}) {
				t.Errorf("hedge %+v, want a fixed 5ms", c.router.Client.Hedge)
			}
		}},
		{name: "hedge garbage", args: []string{"-hedge", "soon"}, errHas: "-hedge"},
		{name: "unknown policy", args: []string{"-policy", "random"}, errHas: "-policy"},
		{name: "membership and timeout", args: []string{"-heartbeat", "1s", "-suspect-after", "3", "-expire-after", "6", "-timeout", "2s"},
			check: func(t *testing.T, c config) {
				r := c.router.Registry
				if r.HeartbeatInterval != time.Second || r.SuspectAfter != 3 || r.ExpireAfter != 6 || c.router.Client.CallTimeout != 2*time.Second {
					t.Errorf("registry %+v, timeout %v", r, c.router.Client.CallTimeout)
				}
			}},
		{name: "unknown flag", args: []string{"-frobnicate"}, errHas: "frobnicate"},
	}
	for _, name := range federation.PolicyNames {
		want, err := federation.PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, flagCase{name: "policy " + name, args: []string{"-policy", name}, check: func(t *testing.T, c config) {
			if c.router.Policy != want || c.policyName != name {
				t.Errorf("-policy %s gave %T (%q)", name, c.router.Policy, c.policyName)
			}
		}})
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
