package mq

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
)

// The wire protocol is line-oriented with length-prefixed bodies, chosen
// so a BP event (which may contain quoted newline escapes but never raw
// newlines) survives unmodified:
//
//	client -> server:
//	  PUB <routing-key> <body-len>\n<body-bytes>\n
//	  QDECL <queue> <durable 0|1>\n
//	  BIND <queue> <pattern>\n
//	  SUB <queue>\n                 (switches the connection to delivery mode)
//	server -> client:
//	  OK\n | ERR <message>\n
//	  MSG <routing-key> <body-len>\n<body-bytes>\n   (delivery mode)
//
// One connection is either a producer/control connection or, after SUB, a
// delivery stream; that mirrors AMQP channel usage closely enough for this
// system while keeping the implementation dependency-free.

// Server exposes a Broker over TCP.
type Server struct {
	broker *Broker
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	done   chan struct{}
	wg     sync.WaitGroup
}

// NewServer starts serving broker on addr ("host:port", ":0" for an
// ephemeral port). Use Addr to discover the bound address.
func NewServer(broker *Broker, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mq: listen %s: %w", addr, err)
	}
	s := &Server{broker: broker, ln: ln, conns: make(map[net.Conn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every live connection and waits for the
// handlers to exit.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	reply := func(format string, args ...any) bool {
		if _, err := fmt.Fprintf(w, format, args...); err != nil {
			return false
		}
		return w.Flush() == nil
	}
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		fields := strings.Fields(strings.TrimSpace(line))
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "PUB", "PUBA":
			// PUBA is the fire-and-forget variant: no acknowledgement, so
			// producers never block on the bus — the paper's §IV-C
			// requirement for the logging path.
			if len(fields) != 3 {
				if !reply("ERR PUB wants key and length\n") {
					return
				}
				continue
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 || n > 1<<20 {
				if !reply("ERR bad body length\n") {
					return
				}
				continue
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(r, body); err != nil {
				return
			}
			if _, err := r.ReadString('\n'); err != nil { // trailing newline
				return
			}
			s.broker.Publish(fields[1], body)
			if fields[0] == "PUB" && !reply("OK\n") {
				return
			}
		case "QDECL":
			if len(fields) != 3 {
				if !reply("ERR QDECL wants queue and durable flag\n") {
					return
				}
				continue
			}
			_, err := s.broker.DeclareQueue(fields[1], QueueOpts{Durable: fields[2] == "1"})
			if err != nil {
				if !reply("ERR %s\n", err) {
					return
				}
				continue
			}
			if !reply("OK\n") {
				return
			}
		case "BIND":
			if len(fields) != 3 {
				if !reply("ERR BIND wants queue and pattern\n") {
					return
				}
				continue
			}
			if err := s.broker.Bind(fields[1], fields[2]); err != nil {
				if !reply("ERR %s\n", err) {
					return
				}
				continue
			}
			if !reply("OK\n") {
				return
			}
		case "SUB":
			if len(fields) != 2 {
				if !reply("ERR SUB wants a queue\n") {
					return
				}
				continue
			}
			s.broker.mu.RLock()
			q, ok := s.broker.queues[fields[1]]
			s.broker.mu.RUnlock()
			if !ok {
				if !reply("ERR unknown queue %q\n", fields[1]) {
					return
				}
				continue
			}
			if !reply("OK\n") {
				return
			}
			s.deliver(r, w, q)
			return
		default:
			if !reply("ERR unknown command %q\n", fields[0]) {
				return
			}
		}
	}
}

// deliver streams a queue's messages until the client hangs up, the
// connection breaks or the server shuts down. A client in delivery mode
// sends nothing more, so r is only read to see it hang up: a subscriber
// that leaves an idle queue gives up its consumer slot at once, instead
// of holding it until the next message, which it would take from the
// queue and lose.
func (s *Server) deliver(r *bufio.Reader, w *bufio.Writer, q *Queue) {
	gone := make(chan struct{})
	// Exits at the client's hang-up, or when the connection is closed
	// after handle returns.
	go func() {
		_, _ = io.Copy(io.Discard, r)
		close(gone)
	}()
	ch := q.Consume()
	defer q.Cancel()
	for {
		select {
		case <-s.done:
			return
		case <-gone:
			return
		case m, ok := <-ch:
			if !ok {
				return
			}
			if _, err := fmt.Fprintf(w, "MSG %s %d\n", m.Key, len(m.Body)); err != nil {
				return
			}
			if _, err := w.Write(m.Body); err != nil {
				return
			}
			if err := w.WriteByte('\n'); err != nil {
				return
			}
			if err := w.Flush(); err != nil {
				return
			}
		}
	}
}

// Client is a TCP connection to a broker Server for publishing and queue
// management. Methods are safe for concurrent use.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a broker server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mq: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(send func() error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := send(); err != nil {
		return err
	}
	if err := c.w.Flush(); err != nil {
		return err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return err
	}
	line = strings.TrimSpace(line)
	if line == "OK" {
		return nil
	}
	return errors.New("mq: server: " + strings.TrimPrefix(line, "ERR "))
}

// Publish sends one message.
func (c *Client) Publish(key string, body []byte) error {
	if strings.ContainsAny(key, " \n") {
		return fmt.Errorf("mq: routing key %q contains whitespace", key)
	}
	return c.roundTrip(func() error {
		if _, err := fmt.Fprintf(c.w, "PUB %s %d\n", key, len(body)); err != nil {
			return err
		}
		if _, err := c.w.Write(body); err != nil {
			return err
		}
		return c.w.WriteByte('\n')
	})
}

// PublishAsync sends one message without waiting for acknowledgement:
// the non-blocking producer path workflow engines log through. Transport
// errors surface on the next call.
func (c *Client) PublishAsync(key string, body []byte) error {
	if strings.ContainsAny(key, " \n") {
		return fmt.Errorf("mq: routing key %q contains whitespace", key)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.w, "PUBA %s %d\n", key, len(body)); err != nil {
		return err
	}
	if _, err := c.w.Write(body); err != nil {
		return err
	}
	if err := c.w.WriteByte('\n'); err != nil {
		return err
	}
	return c.w.Flush()
}

// DeclareQueue creates a queue on the server.
func (c *Client) DeclareQueue(name string, durable bool) error {
	d := "0"
	if durable {
		d = "1"
	}
	return c.roundTrip(func() error {
		_, err := fmt.Fprintf(c.w, "QDECL %s %s\n", name, d)
		return err
	})
}

// Bind binds a queue to a topic pattern on the server.
func (c *Client) Bind(queue, pattern string) error {
	return c.roundTrip(func() error {
		_, err := fmt.Fprintf(c.w, "BIND %s %s\n", queue, pattern)
		return err
	})
}

// Subscribe switches this connection into delivery mode for the named
// queue and returns a channel of messages. The channel closes when the
// connection drops. After Subscribe the client must not be used for other
// commands.
func (c *Client) Subscribe(queue string) (<-chan Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := fmt.Fprintf(c.w, "SUB %s\n", queue); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return nil, err
	}
	if line = strings.TrimSpace(line); line != "OK" {
		return nil, errors.New("mq: server: " + strings.TrimPrefix(line, "ERR "))
	}
	out := make(chan Message, 1024)
	go func() {
		defer close(out)
		for {
			header, err := c.r.ReadString('\n')
			if err != nil {
				return
			}
			fields := strings.Fields(strings.TrimSpace(header))
			if len(fields) != 3 || fields[0] != "MSG" {
				return
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 || n > 1<<20 {
				return
			}
			body := make([]byte, n)
			if _, err := io.ReadFull(c.r, body); err != nil {
				return
			}
			if _, err := c.r.ReadString('\n'); err != nil {
				return
			}
			out <- Message{Key: fields[1], Body: body}
		}
	}()
	return out, nil
}
