package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"continuum/internal/faas"
	"continuum/internal/wire"
)

// flagCase is one command line and what parseFlags must make of it.
type flagCase struct {
	name   string
	args   []string
	check  func(t *testing.T, c config)
	errHas string // non-empty: parsing must fail, saying this
}

// TestParseFlags: the global flags reach the config, a bad value is an
// error (main exits 2) that names the flag, and a command line with
// only a command gives the documented defaults.
func TestParseFlags(t *testing.T) {
	cases := []flagCase{
		{name: "defaults", args: []string{"ping"}, check: func(t *testing.T, c config) {
			want := config{addrs: []string{"127.0.0.1:9090"}, args: []string{"ping"}}
			if !reflect.DeepEqual(c, want) {
				t.Errorf("config %+v, want %+v", c, want)
			}
		}},
		{name: "addr list", args: []string{"-addr", "a:1, b:2,,c:3", "-timeout", "2s", "invoke", "echo", "hi"},
			check: func(t *testing.T, c config) {
				if !reflect.DeepEqual(c.addrs, []string{"a:1", "b:2", "c:3"}) || c.timeout != 2*time.Second {
					t.Errorf("addrs %q, timeout %v", c.addrs, c.timeout)
				}
				if !reflect.DeepEqual(c.args, []string{"invoke", "echo", "hi"}) {
					t.Errorf("args %q", c.args)
				}
			}},
		{name: "hedge auto one addr", args: []string{"-hedge", "auto", "ping"}, errHas: "-hedge needs at least two"},
		{name: "hedge auto two addrs", args: []string{"-addr", "a:1,b:2", "-hedge", "auto", "ping"},
			check: func(t *testing.T, c config) {
				if c.hedge != (wire.HedgeConfig{Enabled: true}) {
					t.Errorf("hedge %+v, want enabled with a derived delay", c.hedge)
				}
			}},
		{name: "priority low", args: []string{"-priority", "low", "ping"}, check: func(t *testing.T, c config) {
			if c.priority != faas.PriorityLow {
				t.Errorf("priority %v, want low", c.priority)
			}
		}},
		{name: "priority high", args: []string{"-priority", "high", "ping"}, check: func(t *testing.T, c config) {
			if c.priority != faas.PriorityHigh {
				t.Errorf("priority %v, want high", c.priority)
			}
		}},
		{name: "priority bad", args: []string{"-priority", "urgent", "ping"}, errHas: "-priority"},
		{name: "no command", args: []string{"-addr", "a:1"}, errHas: "commands:"},
		{name: "unknown flag", args: []string{"-frobnicate", "ping"}, errHas: "frobnicate"},
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
