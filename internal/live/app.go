package live

import (
	"procgroup/internal/ids"
	"procgroup/internal/member"
)

// AppTraffic marks payload types that belong to an application layer
// riding the group's wire — view-synchronous broadcast, state transfer,
// replicated-state-machine traffic. A marked payload is routed to the
// node's AppHook on the event loop instead of the protocol state machine
// (which panics on vocabulary it does not know). Like SubstrateTraffic it
// never feeds the failure detector: the detector's evidence is the
// monitoring schedule's beacons, and letting application traffic stand in
// for them would keep a peer "alive" exactly as long as its data flows.
type AppTraffic interface{ AppTraffic() }

// AppHook is a per-node application layer driven by the node's event
// loop. Both methods run on the loop — the same goroutine that runs the
// protocol — so a hook needs no locking for state only it touches, and
// sees application traffic and view installs in the exact order the node
// processed them.
type AppHook interface {
	// HandleApp delivers one AppTraffic payload received from a peer (or
	// from this node itself, via AppNode.Send to its own id).
	HandleApp(from ids.ProcID, payload any)
	// HandleInstall reports a locally installed view, after the runtime
	// has refreshed its own monitoring state for it. members is in
	// seniority order (the coordinator first) and owned by the callee.
	HandleInstall(ver member.Version, members []ids.ProcID)
}

// AppHookFactory builds one AppHook per spawned node (Options.App). The
// AppNode it receives is the node's application-facing surface: identity,
// wire sends, loop marshalling. The factory runs before the node's event
// loop starts, so the hook observes every install from the first one.
type AppHookFactory func(n AppNode) AppHook

// AppNode is the surface a node exposes to its AppHook.
type AppNode interface {
	// ID is the node's process identity.
	ID() ids.ProcID
	// Send posts an AppTraffic payload to a peer over the group's
	// transport (reliable FIFO per channel, §2.1). Sending to the node's
	// own id loops the payload back through its mailbox, preserving the
	// loop's ordering. Sends never block.
	Send(to ids.ProcID, payload any)
	// Run marshals fn onto the node's event loop; it never blocks and is
	// a no-op once the node has stopped. This is the only safe way for
	// other goroutines (clients) to touch hook state. Posted from the
	// loop itself, fn runs after every envelope already queued and before
	// any queued later — the end of the current burst.
	Run(fn func())
}

// appNode adapts a liveNode to AppNode; methods are safe from any
// goroutine.
type appNode liveNode

func (a *appNode) ID() ids.ProcID { return a.id }

func (a *appNode) Send(to ids.ProcID, payload any) {
	ln := (*liveNode)(a)
	if to == ln.id {
		// Loop back through the mailbox: dispatch routes it to the hook
		// like any received frame, keeping self-sends ordered with the
		// loop's other work and off the transport entirely.
		ln.box.put(envelope{from: ln.id, payload: payload})
		return
	}
	ln.c.post(ln.id, to, 0, payload)
}

func (a *appNode) Run(fn func()) {
	(*liveNode)(a).box.put(envelope{fn: fn})
}
