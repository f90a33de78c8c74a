// TCP churn: the paper's deployment target made literal. A 5-node group
// runs over real TCP loopback sockets — each pair of processes shares one
// connection carrying length-prefixed binary frames, the substrate the
// §2.1 model describes as an asynchronous network of reliable FIFO
// channels — and is driven through a join + crash churn scenario,
// including the loss of the coordinator. The ViewWatcher condenses the
// per-process install streams into the agreed view sequence GMP
// guarantees.
package main

import (
	"fmt"
	"log"
	"time"

	"procgroup"
)

func main() {
	tr := procgroup.NewTCPTransport()
	g := procgroup.StartGroup(procgroup.GroupOptions{
		N:              5,
		HeartbeatEvery: 20 * time.Millisecond,
		SuspectAfter:   200 * time.Millisecond,
		Transport:      tr,
	})
	defer g.Stop()
	w := procgroup.Watch(g)
	defer w.Close()

	converge := func(what string) {
		v, err := g.WaitConverged(30 * time.Second)
		if err != nil {
			log.Fatalf("%s: %v", what, err)
		}
		fmt.Printf("%-24s -> %v\n", what, v)
	}

	converge("bootstrap")
	for _, p := range g.Running() {
		if addr, ok := tr.Addr(p); ok {
			fmt.Printf("  %-4v listening on %s\n", p, addr)
		}
	}

	// Churn: a join, a member crash, then the coordinator's crash (which
	// forces the three-phase reconfiguration of §4.1 over the sockets).
	g.Join(procgroup.Named("q1"), procgroup.Named("p2"))
	converge("join q1 via p2")
	g.Kill(procgroup.Named("p4"))
	converge("kill p4")
	g.Kill(procgroup.Named("p1"))
	converge("kill p1 (coordinator)")

	// The installs are all published, but the watcher goroutine may still
	// be forwarding them; drain until the stream goes quiet.
	fmt.Println("\nagreed view sequence (ViewWatcher):")
drain:
	for {
		select {
		case av := <-w.Views():
			fmt.Printf("  v%-3d %v\n", av.Ver, av.Members)
		case <-time.After(500 * time.Millisecond):
			break drain
		}
	}
	fmt.Printf("\ninstalls dropped from the update stream: %d\n", g.Dropped())
}
