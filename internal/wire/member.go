package wire

// Federation control-plane frames: the register / heartbeat / deregister
// ops a continuumd daemon sends to a continuum-router, and the endpoints
// op clients use to list the router's membership view. These are
// low-rate control frames (one heartbeat per daemon per interval), so
// their bodies ride as JSON sections inside the binary frame: the
// request's member body and the response's rare-field extension.

// MemberInfo is the body of the federation control ops. A register op
// carries the static half (Name, Addr, Capacity, Functions); heartbeats
// repeat it with the live load snapshot (QueueDepth, InFlight,
// SlotLimit, Cordoned) so the router can route least-loaded without an
// extra round trip; deregister carries Name, Generation, and Draining
// (true = graceful drain, false = immediate leave).
type MemberInfo struct {
	// Name identifies the member; re-registering the same name
	// supersedes the previous incarnation (see Generation).
	Name string `json:"name"`
	// Addr is the address the router dials to reach the member's wire
	// server — the daemon's advertised address, not the connection's
	// source address (which may be NATed or ephemeral).
	Addr string `json:"addr,omitempty"`
	// Capacity is the member's maximum concurrent containers.
	Capacity int `json:"capacity,omitempty"`
	// Functions lists the function names the member serves. Empty means
	// "everything" (a homogeneous fleet needs no capability filtering).
	Functions []string `json:"functions,omitempty"`
	// Generation is the registration incarnation the router assigned:
	// heartbeats and deregisters must echo it, so a frame from a
	// superseded incarnation (a restarted daemon re-registered the name)
	// is detected and rejected instead of corrupting the new state.
	Generation int64 `json:"gen,omitempty"`

	// QueueDepth is the number of invocations waiting for a slot at
	// heartbeat time.
	QueueDepth int `json:"queue,omitempty"`
	// InFlight is the number of invocations currently executing.
	InFlight int64 `json:"inflight,omitempty"`
	// SlotLimit is the current (possibly elastic) concurrency limit.
	SlotLimit int `json:"slots,omitempty"`
	// Cordoned reports that the member rejects new work while finishing
	// in-flight work; the router routes around it.
	Cordoned bool `json:"cordoned,omitempty"`
	// Draining marks a deregister as graceful: the member stops
	// receiving new routes but stays listed until it leaves or expires.
	Draining bool `json:"draining,omitempty"`
}

// MemberStatus is one row of the endpoints op: the member's last
// advertised info plus the router's view of its liveness.
type MemberStatus struct {
	MemberInfo
	// State is the router's liveness verdict: "alive", "suspect"
	// (missed heartbeats), or "draining".
	State string `json:"state"`
	// AgeMS is how long ago the last heartbeat (or registration)
	// arrived, in milliseconds.
	AgeMS int64 `json:"age_ms"`
}
