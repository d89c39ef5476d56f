package main

import (
	"reflect"
	"testing"
)

// TestPlantedProgram runs every check over testdata/mod, a small module
// with one planted case per rule: a live chain, a dead chain (Dead and
// its helper), methods kept alive only by fmt.Stringer and by a local
// interface, a helper only init calls, an allowlisted unreachable
// function, two stale allowlist entries, an exported type with no doc
// comment, and a Config whose fields are set by the command (Size), by
// a literal in their own package (Mode), allowlisted (Spare) and only
// defaulted by an assignment in their own package (Unset), and ranges
// over a map with and without a //det: reason (det.go).
func TestPlantedProgram(t *testing.T) {
	got, err := run([]string{"testdata/mod"}, []string{"testdata/mod/internal/demo"}, []string{"testdata/mod/internal/demo"}, "testdata/mod/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allowlist: lintdemo/internal/demo.Gone is not an unreachable declaration or an unset field; remove the entry",
		"allowlist: lintdemo/internal/demo.Live is not an unreachable declaration or an unset field; remove the entry",
		"testdata/mod/internal/demo/demo.go:12: unreachable func lintdemo/internal/demo.Dead",
		"testdata/mod/internal/demo/demo.go:15: unreachable func lintdemo/internal/demo.deadHelper",
		"testdata/mod/internal/demo/demo.go:26: exported type Square has no doc comment",
		"testdata/mod/internal/demo/demo.go:51: field lintdemo/internal/demo.Config.Unset is never set",
		"testdata/mod/internal/demo/det.go:21: range over a map: range over sorted keys, or give a //det: reason",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n%q\nwant:\n%q", got, want)
	}
}
