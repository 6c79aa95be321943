package mq

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// halfClosed is the server's end of a client that sent its input and
// then shut down its write side: reads return the input, then io.EOF,
// while replies still flow back over the pipe.
type halfClosed struct {
	net.Conn
	in io.Reader
}

func (c halfClosed) Read(p []byte) (int, error) { return c.in.Read(p) }

// FuzzServerFrames drives the broker's TCP frame reader (Server.handle)
// with arbitrary client bytes, draining every reply over net.Pipe.
// Whatever the commands, length prefixes or SUB the input holds, handle
// must never panic and must return once the input ends.
func FuzzServerFrames(f *testing.F) {
	for _, seed := range []string{
		"PUB a.b 5\nhello\n",
		"PUBA a.b 3\nxyz\nPUB k 0\n\n",
		"QDECL q 1\nBIND q a.#\nPUB a.b 2\nhi\nSUB q\n",
		"QDECL q 0\nBIND q k\nSUB q\nPUB k 1\nx\n",
		"PUB k 1048577\n",
		"PUB k -1\nBIND\nSUB nope\nQDECL\nFOO bar\n\n",
		"PUB k 10\nshort",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &Server{broker: NewBroker(), conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
		srv, cli := net.Pipe()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, cli)
		}()
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			s.handle(halfClosed{srv, bytes.NewReader(in)})
		}()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("handle still running after the input ended: %q", in)
		}
		srv.Close()
		<-drained
	})
}
