package scenario

import (
	"fmt"
	"testing"
	"time"
)

func TestGenerateStressValidates(t *testing.T) {
	for _, n := range []int{0, 8, 100, 1000} {
		s := GenerateStress(StressSpec{Nodes: n, Seed: 1})
		if err := s.Validate(); err != nil {
			t.Fatalf("stress n=%d: %v", n, err)
		}
	}
	s := GenerateStress(StressSpec{Nodes: 1000})
	if len(s.Nodes) != 1000 {
		t.Fatalf("asked for 1000 nodes, got %d", len(s.Nodes))
	}
}

// TestGenerateStressNames checks every generated node name, link
// endpoint and origin against the fmt.Sprintf spelling they replace;
// 12345 nodes reach five-digit gateway numbers.
func TestGenerateStressNames(t *testing.T) {
	for _, n := range []int{8, 100, 1000, 12345} {
		s := GenerateStress(StressSpec{Nodes: n})
		fogs := max(n/64, 2)
		gws := n - 1 - fogs
		want := []string{"cloud"}
		for f := 0; f < fogs; f++ {
			want = append(want, fmt.Sprintf("fog%d", f))
		}
		for g := 0; g < gws; g++ {
			want = append(want, fmt.Sprintf("gw%04d", g))
		}
		if len(s.Nodes) != len(want) || len(s.Links) != n-1 {
			t.Fatalf("n=%d: %d nodes and %d links, want %d and %d", n, len(s.Nodes), len(s.Links), len(want), n-1)
		}
		for i, nj := range s.Nodes {
			if nj.Name != want[i] {
				t.Fatalf("n=%d: nodes[%d] is %q, want %q", n, i, nj.Name, want[i])
			}
		}
		for i, l := range s.Links {
			a, b := fmt.Sprintf("fog%d", i), "cloud"
			if i >= fogs {
				g := i - fogs
				a, b = fmt.Sprintf("gw%04d", g), fmt.Sprintf("fog%d", g%fogs)
			}
			if l.A != a || l.B != b {
				t.Fatalf("n=%d: links[%d] is %s-%s, want %s-%s", n, i, l.A, l.B, a, b)
			}
		}
		origins := min(64, gws)
		if len(s.Stream.Origins) != origins {
			t.Fatalf("n=%d: %d origins, want %d", n, len(s.Stream.Origins), origins)
		}
		stride := max(gws/origins, 1)
		for i, o := range s.Stream.Origins {
			if w := fmt.Sprintf("gw%04d", i*stride); o != w {
				t.Fatalf("n=%d: origins[%d] is %q, want %q", n, i, o, w)
			}
		}
	}
}

// TestStress1000Nodes is the scale gate from the issue: a generated
// 1000-node scenario must validate and complete a full sim run — every
// event mechanism firing at once over a 1000-node fleet — within a
// generous CI-safe budget. (`make stress` runs the same scenario
// through the CLI with a wall-clock check.)
func TestStress1000Nodes(t *testing.T) {
	if testing.Short() {
		t.Skip("stress harness skipped in -short")
	}
	s := GenerateStress(StressSpec{Nodes: 1000, Seed: 42})
	start := time.Now()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if r.Completed == 0 {
		t.Fatal("1000-node stress completed nothing")
	}
	if r.MeanLat <= 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if len(r.PerNode) == 0 {
		t.Fatal("no per-node placement data")
	}
	// The script fails fog0 and cascades gateways, so there must be
	// retry/suppression activity — a zero here means events never fired.
	if r.Retries == 0 && r.Suppressed == 0 {
		t.Fatal("stress events produced no retries or suppressed submissions")
	}
	if budget := 120 * time.Second; elapsed > budget {
		t.Fatalf("1000-node stress took %v, budget %v", elapsed, budget)
	}
	t.Logf("1000 nodes: completed=%d lost=%d retries=%d suppressed=%d in %v",
		r.Completed, r.Lost, r.Retries, r.Suppressed, elapsed)
}
