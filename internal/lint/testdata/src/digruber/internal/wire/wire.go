// Package wire is a typed stub of the real internal/wire for fixture
// packages: just enough surface for the lockheld analyzer to classify
// RPC entry points and for the registration rule to follow body types.
package wire

import "time"

// Transport dials peers (stub).
type Transport interface {
	Dial(addr string) error
}

// ClientConfig configures a Client (stub).
type ClientConfig struct {
	Transport Transport
}

// Client is the RPC client (stub).
type Client struct{}

// NewClient builds a client; construction is setup, not an RPC.
func NewClient(cfg ClientConfig) *Client { return &Client{} }

// Call performs a raw RPC (stub).
func (c *Client) Call(method string, body []byte, timeout time.Duration) ([]byte, error) {
	return nil, nil
}

// Call performs a typed RPC; its type arguments are bodies.
func Call[Req, Resp any](c *Client, method string, req Req, timeout time.Duration) (Resp, error) {
	var resp Resp
	return resp, nil
}

// Server is the RPC server (stub).
type Server struct{}

// Handle registers a typed handler; its type arguments are bodies.
func Handle[Req, Resp any](s *Server, method string, fn func(Req) (Resp, error)) {}

// CallCtx performs a traced typed RPC (stub).
func CallCtx[Req, Resp any](c *Client, method string, req Req, timeout time.Duration) (Resp, error) {
	var resp Resp
	return resp, nil
}

// Register numbers body types at init (stub).
func Register(values ...any) {}
