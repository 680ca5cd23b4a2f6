// Package vtimeblock_bad parks vtime processes on real host
// primitives — every construct the vtimeblock analyzer must flag.
package vtimeblock_bad

import (
	"sync"
	"time"

	"vtime"
)

var mu sync.Mutex
var wg sync.WaitGroup
var once sync.Once
var ch = make(chan int)

func spawnAll(e *vtime.Engine) {
	e.Go("literal", func(p *vtime.Proc) {
		mu.Lock() // want `sync.Mutex.Lock in vtime proc context`
		ch <- 1   // want `real channel send in vtime proc context`
		<-ch      // want `real channel receive in vtime proc context`
		wg.Wait() // want `sync.WaitGroup.Wait in vtime proc context`
	})
	e.Go("named", namedBody)
	e.At(10, func() {
		time.Sleep(time.Millisecond) // want `time.Sleep in vtime proc context`
	})
	e.At(5, timerBody)
}

func namedBody(p *vtime.Proc) {
	select { // want `select over real channels in vtime proc context`
	case <-ch: // want `real channel receive in vtime proc context`
	default:
	}
	helper() // one-level propagation reaches helper's body
}

func timerBody() {
	once.Do(setup)      // want `sync.Once.Do in vtime proc context`
	for v := range ch { // want `range over a real channel in vtime proc context`
		_ = v
	}
}

// helper is not passed to the engine directly; it is flagged because a
// seeded body calls it (one level of propagation).
func helper() {
	var rw sync.RWMutex
	rw.RLock() // want `sync.RWMutex.RLock in vtime proc context`
}

func setup() {}
