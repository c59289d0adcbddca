// Positive ctxflow fixture: a severed cancellation chain
// (context.Background outside package main) and blocking channel
// operations that ignore an available context.
package transport

import "context"

type Conn struct {
	ctx context.Context
	in  chan []byte
}

func dial() context.Context {
	return context.Background()
}

func deliver(ctx context.Context, out chan []byte, b []byte) {
	out <- b
}

func (c *Conn) next() []byte {
	return <-c.in
}

func pump(a, b chan int) {
	select {
	case <-a:
	case <-b:
	}
}
