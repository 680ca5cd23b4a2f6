// Package vtimeblock_ok uses the kernel's own primitives inside proc
// context and keeps real synchronization outside it.
package vtimeblock_ok

import (
	"sync"

	"vtime"
)

var results = make(chan int, 16)

func spawn(e *vtime.Engine, c *vtime.Cond) {
	e.Go("worker", func(p *vtime.Proc) {
		p.Sleep(3)
		c.Wait(p) // virtual-time wait: fine
		c.Broadcast()
	})
	e.At(10, c.Broadcast)
}

// harness runs OUTSIDE the virtual-time universe (it is not passed to
// Engine.Go/At), so real primitives are fine here.
func harness() int {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	results <- 1
	return <-results
}

// escape: a deliberate, reviewed real-channel use in proc context.
func spawnEscaped(e *vtime.Engine) {
	e.Go("escaped", func(p *vtime.Proc) {
		results <- 1 //lmovet:allow vtimeblock
	})
}
