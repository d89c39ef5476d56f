// Package scenario is the experiment front door: one JSON format
// describing a deployment (nodes, links), a workload (stream or DAG),
// and a timed event script — failures, cascades, chaos, link
// degradation, workload phases — that two interchangeable backends
// replay from the same file: the discrete-event simulator and a live
// in-process continuumd fleet (Run and Plan.RunLive). A scenario plus its Seed is
// a complete, bit-reproducible experiment description.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"

	"continuum/internal/metrics"
	"continuum/internal/node"
	"continuum/internal/placement"
	"continuum/internal/task"
	"continuum/internal/workload"
)

// AccelJSON describes an accelerator pool.
type AccelJSON struct {
	Kind  string  `json:"kind"` // "gpu" | "tpu" | "fpga"
	Count int     `json:"count"`
	Flops float64 `json:"flops"`
	Watts float64 `json:"watts"`
}

// NodeJSON describes one node. Class accepts the tier names from
// node.Class.String.
type NodeJSON struct {
	Name          string     `json:"name"`
	Class         string     `json:"class"`
	Cores         int        `json:"cores"`
	CoreFlops     float64    `json:"coreFlops"`
	MemBytes      int64      `json:"memBytes"`
	Accel         *AccelJSON `json:"accel,omitempty"`
	IdleWatts     float64    `json:"idleWatts"`
	ActiveWatts   float64    `json:"activeWattsPerCore"`
	DollarPerHour float64    `json:"dollarPerHour"`
	EgressPerByte float64    `json:"egressPerByte"`
}

// spec builds the node.Spec this JSON describes. Both Validate and the
// backends go through it, so "valid" means exactly "buildable".
func (nj NodeJSON) spec() (node.Spec, error) {
	class, err := parseClass(nj.Class)
	if err != nil {
		return node.Spec{}, err
	}
	spec := node.Spec{
		Name: nj.Name, Class: class,
		Cores: nj.Cores, CoreFlops: nj.CoreFlops, MemBytes: nj.MemBytes,
		IdleWatts: nj.IdleWatts, ActiveWattsCore: nj.ActiveWatts,
		DollarPerHour: nj.DollarPerHour, EgressPerByte: nj.EgressPerByte,
	}
	if nj.Accel != nil {
		kind, err := parseAccelKind(nj.Accel.Kind)
		if err != nil {
			return node.Spec{}, err
		}
		spec.Accel = node.Accelerator{
			Kind: kind, Count: nj.Accel.Count,
			Flops: nj.Accel.Flops, Watts: nj.Accel.Watts,
		}
	}
	if err := spec.Validate(); err != nil {
		return node.Spec{}, err
	}
	return spec, nil
}

// LinkJSON is a duplex link between two named nodes.
type LinkJSON struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	Latency  float64 `json:"latency"`
	Capacity float64 `json:"capacity"`
}

// StreamJSON describes an online-placement workload.
type StreamJSON struct {
	Policy        string   `json:"policy"` // placement policy name
	Origins       []string `json:"origins"`
	RatePerOrigin float64  `json:"ratePerOrigin"`
	Horizon       float64  `json:"horizon"`
	ScalarWork    float64  `json:"scalarWork"`
	TensorWork    float64  `json:"tensorWork"`
	Accel         string   `json:"accel,omitempty"`
	InputBytes    float64  `json:"inputBytes"`
	OutputBytes   float64  `json:"outputBytes"`
	// Priorities maps an origin to the admission class of the requests
	// it submits: -1 low, 0 normal, 1 high. Origins absent from the map
	// submit at normal priority, so priority-unaware scenarios are
	// unchanged. Priority only changes outcomes when admission control
	// is in play (the Admission gate here, or -max-queue on a live
	// continuumd): under overload, low-priority origins shed first.
	Priorities map[string]int `json:"priorities,omitempty"`
	// Admission, when > 0, is the capacity of the admission gate the sim
	// backend's jobs pass (core.Options.Admission). Jobs over it
	// queue; past the queue's class watermarks they are shed, lowest
	// class first, and count in the report's Shed, not Lost. The live
	// backend's endpoints run the plain gate and ignore it.
	Admission int `json:"admission,omitempty"`
}

// DAGJSON describes a workflow workload.
type DAGJSON struct {
	Generator string  `json:"generator"` // chain|fanoutin|layered|montage|epigenomics|cybershake
	Size      int     `json:"size"`
	Scheduler string  `json:"scheduler"` // heft|cpop|greedy|roundrobin|random
	MeanWork  float64 `json:"meanWork"`
	MeanBytes float64 `json:"meanBytes"`
}

// Scenario is a full run description.
type Scenario struct {
	Name string `json:"name"`
	// Seed makes the run bit-reproducible: every random draw — arrival
	// gaps, cascade victim selection, chaos sequences, DAG shapes — is
	// derived from it through split sub-streams.
	Seed uint64 `json:"seed"`
	// Retries bounds per-job re-dispatches when faults are in play.
	// Zero defaults to 10 when the scenario has events, else 0 (a
	// fault-free scenario never retries anyway).
	Retries int         `json:"retries,omitempty"`
	Nodes   []NodeJSON  `json:"nodes"`
	Links   []LinkJSON  `json:"links"`
	Stream  *StreamJSON `json:"stream,omitempty"`
	DAG     *DAGJSON    `json:"dag,omitempty"`
	// Events is the timed script both backends replay; see EventJSON.
	Events []EventJSON `json:"events,omitempty"`
}

// retries returns the effective retry budget (see the Retries field).
func (s *Scenario) retries() int {
	if s.Retries > 0 {
		return s.Retries
	}
	if len(s.Events) > 0 {
		return 10
	}
	return 0
}

// Parse decodes and compiles a scenario.
func Parse(b []byte) (*Plan, error) {
	var s Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return s.Compile()
}

// Plan is a compiled scenario: what Compile resolved, kept so that a run
// neither re-checks nor re-compiles the description. A Plan does not
// change once built, so running it twice gives the same result; the
// Scenario it was compiled from must not change either.
type Plan struct {
	Scenario *Scenario        // the description
	index    map[string]int   // node name → index into Scenario.Nodes
	ops      []op             // the time-sorted event timeline
	phases   []workload.Phase // the stream's arrival rate schedule
	accel    node.AccelKind   // the stream tasks' accelerator kind
	rng      workload.RNG     // the seed stream after the event compile's split

	// The workload's constructors, each given the run's stream for it:
	// the stream's placement policy (a stateful one is new per run), or
	// the DAG's generator and scheduler.
	policy   func(*workload.RNG) placement.Policy
	dag      func(*workload.RNG) *task.DAG
	schedule func(*placement.Env, *task.DAG, *workload.RNG) placement.Schedule
}

// Validate checks the whole description; it is Compile with the plan
// thrown away.
func (s *Scenario) Validate() error {
	_, err := s.Compile()
	return err
}

// Compile checks the whole description and reports the first problem
// with a positional message (nodes[i], links[i], events[i]), so a bad
// file fails before it runs — never as a panic mid-run. A fleet whose
// links leave some node with no path to nodes[0] is such a problem:
// placement assumes every node reaches every other.
func (s *Scenario) Compile() (*Plan, error) {
	fail := func(format string, args ...any) (*Plan, error) {
		return nil, fmt.Errorf("scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	p := &Plan{Scenario: s}
	var err error
	if len(s.Nodes) == 0 {
		return fail("no nodes")
	}
	names := make(map[string]int, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fail("nodes[%d]: empty name", i)
		}
		if j, dup := names[n.Name]; dup {
			return fail("nodes[%d] (%q): duplicate of nodes[%d]", i, n.Name, j)
		}
		names[n.Name] = i
		if _, err := n.spec(); err != nil {
			return fail("nodes[%d] (%q): %v", i, n.Name, err)
		}
	}
	// Links are duplex, so the fleet is connected exactly when one
	// union-find set holds every node. parent[i] leads toward the root
	// of node i's set; sets counts the sets left.
	parent := make([]int, len(s.Nodes))
	for i := range parent {
		parent[i] = i
	}
	root := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	sets := len(s.Nodes)
	for i, l := range s.Links {
		var ends [2]int
		for k, end := range [2]string{l.A, l.B} {
			j, ok := names[end]
			if !ok {
				return fail("links[%d] (%s-%s): endpoint %q is not a defined node", i, l.A, l.B, end)
			}
			ends[k] = j
		}
		if l.A == l.B {
			return fail("links[%d]: self-link %q", i, l.A)
		}
		if l.Latency < 0 {
			return fail("links[%d] (%s-%s): negative latency %v", i, l.A, l.B, l.Latency)
		}
		if l.Capacity <= 0 {
			return fail("links[%d] (%s-%s): capacity %v must be positive", i, l.A, l.B, l.Capacity)
		}
		if a, b := root(ends[0]), root(ends[1]); a != b {
			parent[a] = b
			sets--
		}
	}
	// With sets > 1 some node lies outside nodes[0]'s set, so the scan
	// below returns before it runs out of nodes.
	for i := 1; sets > 1; i++ {
		if root(i) != root(0) {
			return fail("nodes[%d] (%q): no path to nodes[0] (%q)", i, s.Nodes[i].Name, s.Nodes[0].Name)
		}
	}
	if s.Stream == nil && s.DAG == nil {
		return fail("no workload (stream or dag)")
	}
	if s.Stream != nil && s.DAG != nil {
		return fail("both stream and dag specified")
	}
	if s.Stream != nil {
		if p.policy, err = parsePolicy(s.Stream.Policy); err != nil {
			return fail("stream: %v", err)
		}
		if len(s.Stream.Origins) == 0 {
			return fail("stream: no origins")
		}
		for i, o := range s.Stream.Origins {
			if _, ok := names[o]; !ok {
				return fail("stream origins[%d]: %q is not a defined node", i, o)
			}
		}
		if s.Stream.RatePerOrigin <= 0 || s.Stream.Horizon <= 0 {
			return fail("stream: rate and horizon must be positive (got %v, %v)",
				s.Stream.RatePerOrigin, s.Stream.Horizon)
		}
		if s.Stream.Accel != "" {
			if p.accel, err = parseAccelKind(s.Stream.Accel); err != nil {
				return fail("stream: %v", err)
			}
		}
		if s.Stream.Admission < 0 {
			return fail("stream: admission %d must be >= 0", s.Stream.Admission)
		}
		origins := make(map[string]bool, len(s.Stream.Origins))
		for _, o := range s.Stream.Origins {
			origins[o] = true
		}
		prioOrigins := make([]string, 0, len(s.Stream.Priorities))
		for o := range s.Stream.Priorities { //det: sorted below
			prioOrigins = append(prioOrigins, o)
		}
		sort.Strings(prioOrigins) // deterministic first-error reporting
		for _, o := range prioOrigins {
			if !origins[o] {
				return fail("stream priorities: %q is not a stream origin", o)
			}
			if p := s.Stream.Priorities[o]; p < -1 || p > 1 {
				return fail("stream priorities[%q]: %d out of range [-1 low, 0 normal, 1 high]", o, p)
			}
		}
	}
	if s.DAG != nil {
		if s.DAG.Size > maxDAGSize {
			return fail("dag: size %d exceeds %d", s.DAG.Size, maxDAGSize)
		}
		if p.dag, err = dagGen(s.DAG); err != nil {
			return fail("dag: %v", err)
		}
		if p.schedule, err = parseScheduler(s.DAG.Scheduler); err != nil {
			return fail("dag: %v", err)
		}
	}
	if s.Retries < 0 {
		return fail("retries %d must be >= 0", s.Retries)
	}
	// Compiling the event script performs all per-event validation.
	rng := workload.NewRNG(s.Seed)
	if p.ops, err = s.compile(rng.Split()); err != nil {
		return nil, err
	}
	p.index, p.phases, p.rng = names, phases(p.ops), *rng
	return p, nil
}

func parseClass(s string) (node.Class, error) {
	for c := node.Sensor; c <= node.HPC; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown node class %q", s)
}

func parseAccelKind(s string) (node.AccelKind, error) {
	for k := node.NoAccel; k <= node.FPGA; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown accel kind %q", s)
}

func parsePolicy(name string) (func(*workload.RNG) placement.Policy, error) {
	var pol placement.Policy // a stateless policy every run shares
	switch name {
	case "edge-only":
		pol = placement.EdgeOnly{}
	case "cloud-only":
		pol = placement.CloudOnly{}
	case "greedy-latency":
		pol = placement.GreedyLatency{}
	case "greedy-energy":
		pol = placement.GreedyEnergy{}
	case "greedy-cost":
		pol = placement.GreedyCost{}
	case "data-aware":
		pol = placement.DataAware{}
	case "round-robin":
		return func(*workload.RNG) placement.Policy { return &placement.RoundRobin{} }, nil
	case "random":
		return func(rng *workload.RNG) placement.Policy { return placement.Random{RNG: rng} }, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
	return func(*workload.RNG) placement.Policy { return pol }, nil
}

func parseScheduler(name string) (func(*placement.Env, *task.DAG, *workload.RNG) placement.Schedule, error) {
	switch name {
	case "heft":
		return func(e *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.HEFT(e, d)
		}, nil
	case "cpop":
		return func(e *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.CPOP(e, d)
		}, nil
	case "greedy":
		return func(e *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.ListGreedy(e, d)
		}, nil
	case "roundrobin":
		return func(e *placement.Env, d *task.DAG, _ *workload.RNG) placement.Schedule {
			return placement.ListRoundRobin(e, d)
		}, nil
	case "random":
		return func(e *placement.Env, d *task.DAG, rng *workload.RNG) placement.Schedule {
			return placement.ListRandom(e, d, rng)
		}, nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// maxDAGSize bounds dag.size. A generator allocates its tasks up front,
// so a larger size would exhaust memory, or overflow, mid-run.
const maxDAGSize = 1 << 16

// dagGen returns the generator a DAG description names. Compile keeps
// it in the Plan; a run calls it with its seeded stream.
func dagGen(dj *DAGJSON) (func(*workload.RNG) *task.DAG, error) {
	spec := task.GenSpec{
		MeanWork: dj.MeanWork, WorkSigma: 0.8,
		MeanBytes: dj.MeanBytes, BytesSigma: 0.8,
	}
	if spec.MeanWork <= 0 {
		spec.MeanWork = 1e10
	}
	if spec.MeanBytes <= 0 {
		spec.MeanBytes = 1e6
	}
	size := dj.Size
	if size < 2 {
		size = 10
	}
	switch dj.Generator {
	case "chain":
		return func(rng *workload.RNG) *task.DAG { return task.Chain(rng, size, spec) }, nil
	case "fanoutin":
		return func(rng *workload.RNG) *task.DAG { return task.FanOutIn(rng, size, spec) }, nil
	case "layered":
		return func(rng *workload.RNG) *task.DAG { return task.RandomLayered(rng, 5, size/4+1, 3, spec) }, nil
	case "montage":
		return func(rng *workload.RNG) *task.DAG { return task.MontageLike(rng, size, spec) }, nil
	case "epigenomics":
		return func(rng *workload.RNG) *task.DAG { return task.EpigenomicsLike(rng, size/5+1, 4, spec) }, nil
	case "cybershake":
		return func(rng *workload.RNG) *task.DAG { return task.CyberShakeLike(rng, size, spec) }, nil
	default:
		return nil, fmt.Errorf("unknown DAG generator %q", dj.Generator)
	}
}

// Report is the outcome of a scenario run on either backend, renderable
// as a table. Fields have fixed JSON-marshalable types so two runs with
// the same seed produce byte-identical marshaled reports — the
// determinism regression test relies on that.
//
// MeanLat/P99Lat summarize the latency distribution; the meaning follows
// the workload kind and backend: submit→reply virtual seconds for
// simulated streams, per-task ready→finish for simulated DAGs, and
// wall-clock invoke→reply seconds for live runs.
type Report struct {
	Scenario string
	// Backend is "sim" or "live".
	Backend   string
	Workload  string
	Completed int64
	// Lost counts requests abandoned after exhausting retries (sim) or
	// invocations that errored through the reliable client (live). The
	// live e2e gate asserts it is zero.
	Lost int64
	// Retries counts re-dispatches on either backend.
	Retries int64
	// Suppressed counts stream submissions silenced because their origin
	// was down at submit time (a failed gateway generates no traffic) or
	// drained (a "drain" event pauses the node's generator).
	Suppressed int64
	// Shed counts submissions refused fail-fast by admission control
	// (sim backend, stream.admission > 0). Shed requests never started,
	// so they appear in neither Completed nor Lost.
	Shed     int64
	Makespan float64
	MeanLat  float64
	P99Lat   float64
	Joules   float64
	Dollars  float64
	EgressB  float64
	PerNode  map[string]int64
}

// Table renders the report.
func (r *Report) Table() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("scenario %q (%s, %s)", r.Scenario, r.Workload, r.Backend),
		"metric", "value",
	)
	t.AddRow("completed", fmt.Sprintf("%d", r.Completed))
	t.AddRow("lost", fmt.Sprintf("%d", r.Lost))
	t.AddRow("retries", fmt.Sprintf("%d", r.Retries))
	if r.Suppressed > 0 {
		t.AddRow("suppressed", fmt.Sprintf("%d", r.Suppressed))
	}
	if r.Shed > 0 {
		t.AddRow("shed", fmt.Sprintf("%d", r.Shed))
	}
	t.AddRow("makespan", metrics.FormatDuration(r.Makespan))
	t.AddRow("mean latency", metrics.FormatDuration(r.MeanLat))
	t.AddRow("p99 latency", metrics.FormatDuration(r.P99Lat))
	if r.Joules > 0 {
		t.AddRow("energy", fmt.Sprintf("%.1f J", r.Joules))
	}
	if r.Dollars > 0 {
		t.AddRow("cost", fmt.Sprintf("$%.6f", r.Dollars))
	}
	if r.EgressB > 0 {
		t.AddRow("egress", metrics.FormatBytes(r.EgressB))
	}
	names := make([]string, 0, len(r.PerNode))
	for name := range r.PerNode { //det: sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow("tasks@"+name, fmt.Sprintf("%d", r.PerNode[name]))
	}
	return t
}

// Example returns a documented sample scenario (used by `scenario
// example`): a metro IoT deployment with a mid-run flash crowd and a
// brief fog outage.
func Example() *Scenario {
	return &Scenario{
		Name: "metro-iot",
		Seed: 42,
		Nodes: []NodeJSON{
			{Name: "gw0", Class: "gateway", Cores: 4, CoreFlops: 2.5e9, MemBytes: 4 << 30, IdleWatts: 2, ActiveWatts: 3},
			{Name: "gw1", Class: "gateway", Cores: 4, CoreFlops: 2.5e9, MemBytes: 4 << 30, IdleWatts: 2, ActiveWatts: 3},
			{Name: "fog", Class: "fog", Cores: 16, CoreFlops: 3e9, MemBytes: 64 << 30, IdleWatts: 40, ActiveWatts: 8,
				Accel: &AccelJSON{Kind: "gpu", Count: 1, Flops: 5e12, Watts: 70}},
			{Name: "cloud", Class: "cloud", Cores: 96, CoreFlops: 3.2e9, MemBytes: 384 << 30, IdleWatts: 300, ActiveWatts: 12,
				DollarPerHour: 24, EgressPerByte: 9e-11,
				Accel: &AccelJSON{Kind: "gpu", Count: 8, Flops: 1.4e13, Watts: 300}},
		},
		Links: []LinkJSON{
			{A: "gw0", B: "fog", Latency: 0.002, Capacity: 1.25e8},
			{A: "gw1", B: "fog", Latency: 0.002, Capacity: 1.25e8},
			{A: "fog", B: "cloud", Latency: 0.020, Capacity: 1.25e9},
		},
		Stream: &StreamJSON{
			Policy: "greedy-latency", Origins: []string{"gw0", "gw1"},
			RatePerOrigin: 10, Horizon: 30,
			ScalarWork: 5e8, InputBytes: 1024, OutputBytes: 128,
		},
		Events: []EventJSON{
			{At: 8, Kind: "workload", Factor: 3},
			{At: 12, Kind: "fail", Target: "fog", For: 5},
			{At: 20, Kind: "workload", Factor: 1},
		},
	}
}
