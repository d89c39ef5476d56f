package federation

import (
	"log/slog"
	"strings"
	"sync"
	"time"

	"continuum/internal/faas"
	"continuum/internal/wire"
)

// AgentConfig parameterizes an Agent.
type AgentConfig struct {
	// RouterAddr is the continuum-router to register with.
	RouterAddr string
	// Name is this daemon's member name (must be unique in the
	// federation; re-registering it supersedes the previous holder).
	Name string
	// Advertise is the address the router should dial to reach this
	// daemon's wire listener — the daemon's reachable address, not
	// necessarily the one it bound.
	Advertise string
	// Endpoint supplies capacity and the live load heartbeats carry.
	// Nil advertises no load (a pure-capability member).
	Endpoint *faas.Endpoint
	// Functions lists the function names this daemon serves; empty means
	// "everything".
	Functions []string
	// Logger, when set, logs registration transitions and errors.
	Logger *slog.Logger
}

// Agent is the daemon half of the federation: it registers with the
// router, heartbeats at the router's cadence with the endpoint's live
// load, re-registers when the router stops recognizing it
// (router restart, expiry after a partition, a superseded generation),
// redials dropped connections, and deregisters — gracefully draining,
// when asked — on shutdown. Start it after the daemon's wire listener
// is serving, so the advertised address is live before the router can
// route to it.
type Agent struct {
	cfg AgentConfig

	mu     sync.Mutex
	client *wire.Client
	gen    int64
	stop   chan struct{}
	done   chan struct{}
}

// NewAgent builds an agent; Start begins the register/heartbeat loop.
func NewAgent(cfg AgentConfig) *Agent {
	return &Agent{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
}

// info assembles the member body for a register or heartbeat frame.
func (a *Agent) info(gen int64) wire.MemberInfo {
	m := wire.MemberInfo{
		Name:       a.cfg.Name,
		Addr:       a.cfg.Advertise,
		Functions:  a.cfg.Functions,
		Generation: gen,
	}
	if ep := a.cfg.Endpoint; ep != nil {
		// Read one by one: approximate under traffic, like any heartbeat.
		m.Capacity = ep.Capacity()
		m.QueueDepth = ep.QueueDepth()
		m.InFlight = ep.Running()
		m.SlotLimit = ep.SlotLimit()
		m.Cordoned = ep.Cordoned()
	}
	return m
}

// dial returns the agent's router connection, (re)dialing if needed.
// Callers must hold a.mu.
func (a *Agent) dialLocked() (*wire.Client, error) {
	if a.client != nil && !a.client.Broken() {
		return a.client, nil
	}
	if a.client != nil {
		a.client.Close()
		a.client = nil
	}
	c, err := wire.Dial(a.cfg.RouterAddr)
	if err != nil {
		return nil, err
	}
	a.client = c
	return c, nil
}

// register performs one register round trip and returns the interval
// the router asked for.
func (a *Agent) register() (time.Duration, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, err := a.dialLocked()
	if err != nil {
		return 0, err
	}
	gen, interval, err := c.Register(a.info(0))
	if err != nil {
		return 0, err
	}
	a.gen = gen
	if a.cfg.Logger != nil {
		a.cfg.Logger.Info("registered with router", "router", a.cfg.RouterAddr, "gen", gen, "heartbeat", interval)
	}
	return interval, nil
}

// heartbeat performs one heartbeat round trip.
func (a *Agent) heartbeat() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	c, err := a.dialLocked()
	if err != nil {
		return err
	}
	return c.Heartbeat(a.info(a.gen))
}

// Start launches the register/heartbeat loop. It returns immediately;
// registration happens (and keeps retrying) in the background, so a
// daemon that boots before its router still joins once the router is
// up.
func (a *Agent) Start() {
	go a.run()
}

// isUnknownMember classifies a router rejection that re-registration
// cures. The verdict crosses the wire as a RemoteError, so match on the
// registry's sentinel message.
func isUnknownMember(err error) bool {
	return err != nil && strings.Contains(err.Error(), "unknown member")
}

// run is the agent's loop: register (retrying at a fixed pace until the
// router answers), then heartbeat at the granted cadence, dropping back
// to registration whenever the router stops recognizing us.
func (a *Agent) run() {
	defer close(a.done)
	const registerRetry = time.Second
	for {
		interval, err := a.register()
		if err != nil {
			if a.cfg.Logger != nil {
				a.cfg.Logger.Warn("router registration failed; will retry", "err", err)
			}
			select {
			case <-a.stop:
				return
			case <-time.After(registerRetry):
			}
			continue
		}
		if interval <= 0 {
			interval = DefaultHeartbeatInterval
		}
		t := time.NewTicker(interval)
		for {
			select {
			case <-a.stop:
				t.Stop()
				return
			case <-t.C:
			}
			if err := a.heartbeat(); err != nil {
				if a.cfg.Logger != nil {
					a.cfg.Logger.Warn("heartbeat failed", "err", err, "reregister", isUnknownMember(err))
				}
				if isUnknownMember(err) {
					break // fall back to registration with a fresh generation
				}
				// Transport errors just keep ticking: dialLocked redials on
				// the next beat, and the router's expiry horizon is several
				// intervals wide.
			}
		}
		t.Stop()
	}
}

// Stop halts the register/heartbeat loop WITHOUT deregistering — the
// crash shape: the router learns of the death only through missed
// heartbeats (suspect, then expiry). Tests use it to simulate a killed
// daemon; graceful shutdown wants Leave.
func (a *Agent) Stop() {
	select {
	case <-a.stop:
	default:
		close(a.stop)
		<-a.done
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.client != nil {
		a.client.Close()
		a.client = nil
	}
}

// Leave deregisters and stops the loop. drain true asks the router for
// a graceful drain — stop routing new work, let in-flight work finish —
// which is the daemon-shutdown path: cordon the endpoint, Leave(true),
// then drain the wire server.
func (a *Agent) Leave(drain bool) error {
	select {
	case <-a.stop:
	default:
		close(a.stop)
		<-a.done
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var err error
	if a.gen != 0 {
		var c *wire.Client
		if c, err = a.dialLocked(); err == nil {
			err = c.Deregister(a.cfg.Name, a.gen, drain)
		}
	}
	if a.client != nil {
		a.client.Close()
		a.client = nil
	}
	return err
}
