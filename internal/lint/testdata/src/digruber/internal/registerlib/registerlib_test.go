package registerlib

import (
	"time"

	"digruber/internal/wire"
)

func useLocal(c *wire.Client) {
	_, _ = wire.Call[Local, Local](c, "local", Local{}, time.Second)
}
