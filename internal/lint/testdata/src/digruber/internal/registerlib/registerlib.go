// Package registerlib is the registration rule's fixture: bodies
// registered inline and through a list, a pair sent through a generic
// helper, and two bodies nobody registered.
package registerlib

import (
	"time"

	"digruber/internal/wire"
)

type (
	Ping      struct{ N int }
	Pong      struct{ N int }
	Listed    struct{ S string }
	ViaHelper struct{ S string }
	Forgotten struct{ S string } // sent through the helper, never registered
	Stray     struct{ S string } // handled, never registered
	Local     struct{ S string } // only a test sends it
)

var bodies = []any{Listed{}, ViaHelper{}}

func init() {
	wire.Register(Ping{}, Pong{})
	wire.Register(bodies...)
}

// send passes its type parameters on to the wire.
func send[A, R any](c *wire.Client, a A) (R, error) {
	return wire.CallCtx[A, R](c, "m", a, time.Second)
}

func Use(c *wire.Client, s *wire.Server) {
	_, _ = wire.Call[Ping, Pong](c, "ping", Ping{}, time.Second)
	_, _ = send[ViaHelper, Listed](c, ViaHelper{})
	_, _ = send[Ping, Forgotten](c, Ping{})
	wire.Handle(s, "stray", func(Stray) (Pong, error) { return Pong{}, nil })
}
