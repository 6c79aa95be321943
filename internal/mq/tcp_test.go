package mq

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Broker) {
	t.Helper()
	b := NewBroker()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s, b
}

func TestTCPPublishSubscribe(t *testing.T) {
	s, _ := startServer(t)

	ctl, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.DeclareQueue("stampede", true); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Bind("stampede", "stampede.#"); err != nil {
		t.Fatal(err)
	}

	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	msgs, err := sub.Subscribe("stampede")
	if err != nil {
		t.Fatal(err)
	}

	body := "ts=2012-03-13T12:35:38.000000Z event=stampede.xwf.start restart_count=0"
	if err := ctl.Publish("stampede.xwf.start", []byte(body)); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if m.Key != "stampede.xwf.start" || string(m.Body) != body {
			t.Fatalf("got %q %q", m.Key, m.Body)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery within 2s")
	}
}

func TestTCPManyMessagesOrdered(t *testing.T) {
	s, _ := startServer(t)
	ctl, _ := Dial(s.Addr())
	defer ctl.Close()
	if err := ctl.DeclareQueue("q", false); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Bind("q", "#"); err != nil {
		t.Fatal(err)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, err := sub.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	// Join the publisher before the deferred Close calls run: the last
	// Publish may still be reading its ack after message n-1 arrives.
	pubDone := make(chan struct{})
	defer func() { <-pubDone }()
	go func() {
		defer close(pubDone)
		for i := 0; i < n; i++ {
			if err := ctl.Publish("k.x", []byte(fmt.Sprintf("msg-%04d", i))); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		select {
		case m := <-msgs:
			want := fmt.Sprintf("msg-%04d", i)
			if string(m.Body) != want {
				t.Fatalf("message %d = %q, want %q (ordering broken)", i, m.Body, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at message %d", i)
		}
	}
}

func TestTCPErrors(t *testing.T) {
	s, _ := startServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	if err := c.Bind("ghost", "#"); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("bind ghost err = %v", err)
	}
	if _, err := c.Subscribe("ghost"); err == nil {
		t.Error("subscribe to unknown queue succeeded")
	}
}

func TestTCPPublishAsync(t *testing.T) {
	s, _ := startServer(t)
	ctl, _ := Dial(s.Addr())
	defer ctl.Close()
	if err := ctl.DeclareQueue("q", false); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Bind("q", "#"); err != nil {
		t.Fatal(err)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, err := sub.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := ctl.PublishAsync("k.async", []byte(fmt.Sprintf("a%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// A sync command after the async burst proves the connection state is
	// intact (no stray OK responses queued up).
	if err := ctl.Publish("k.sync", []byte("tail")); err != nil {
		t.Fatalf("sync publish after async burst: %v", err)
	}
	for i := 0; i < n+1; i++ {
		select {
		case m := <-msgs:
			if i < n {
				want := fmt.Sprintf("a%03d", i)
				if string(m.Body) != want {
					t.Fatalf("message %d = %q, want %q", i, m.Body, want)
				}
			} else if string(m.Body) != "tail" {
				t.Fatalf("tail = %q", m.Body)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at message %d", i)
		}
	}
	if err := ctl.PublishAsync("bad key", []byte("x")); err == nil {
		t.Error("async publish with whitespace key accepted")
	}
}

func TestTCPPublishBadKey(t *testing.T) {
	s, _ := startServer(t)
	c, _ := Dial(s.Addr())
	defer c.Close()
	if err := c.Publish("has space", []byte("x")); err == nil {
		t.Error("whitespace routing key accepted")
	}
}

func TestTCPServerCloseUnblocksSubscriber(t *testing.T) {
	b := NewBroker()
	s, err := NewServer(b, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, _ := Dial(s.Addr())
	defer c.Close()
	if err := c.DeclareQueue("q", true); err != nil {
		t.Fatal(err)
	}
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, err := sub.Subscribe("q")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Logf("server close: %v", err)
	}
	select {
	case _, ok := <-msgs:
		if ok {
			t.Fatal("unexpected message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscription channel not closed on server shutdown")
	}
}

func TestTCPBinaryBody(t *testing.T) {
	s, _ := startServer(t)
	ctl, _ := Dial(s.Addr())
	defer ctl.Close()
	_ = ctl.DeclareQueue("q", false)
	_ = ctl.Bind("q", "#")
	sub, _ := Dial(s.Addr())
	defer sub.Close()
	msgs, _ := sub.Subscribe("q")
	body := make([]byte, 256)
	for i := range body {
		body[i] = byte(i) // includes \n, \0, etc.
	}
	if err := ctl.Publish("bin", body); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-msgs:
		if string(m.Body) != string(body) {
			t.Fatal("binary body corrupted in transit")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

// TestTCPSubscriberHangupReleasesQueue: a subscriber that disconnects
// from an idle queue gives up its consumer slot without waiting for a
// message, so the next message goes to a live consumer instead of being
// taken, and lost, by the dead one.
func TestTCPSubscriberHangupReleasesQueue(t *testing.T) {
	s, b := startServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.DeclareQueue("q", true); err != nil {
		t.Fatal(err)
	}
	b.mu.RLock()
	q := b.queues["q"]
	b.mu.RUnlock()
	consumers := func() int {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.subs
	}
	waitConsumers := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for consumers() != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue has %d consumers, want %d", consumers(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	sub, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe("q"); err != nil {
		t.Fatal(err)
	}
	waitConsumers(1)
	sub.Close()
	waitConsumers(0)
}
