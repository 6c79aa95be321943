package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/views"
)

// webServer serves the dashboard on a loopback port for the real HTTP
// clients.
type webServer struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startWeb(h http.Handler) (*webServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &webServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		w.srv.Serve(ln)
	}()
	return w, nil
}

func (w *webServer) close() {
	w.srv.Close()
	<-w.done
}

// sseClient is the one real HTTP SSE client of a workload. It reads the
// all-workflows stream and, for every workflow, records when it first saw
// the workflow terminal after the workflow's final line became visible,
// and the last delta body it received for it.
type sseClient struct {
	p      *probe
	cancel context.CancelFunc
	done   chan struct{}
	ready  chan struct{}

	mu        sync.Mutex                 // guards the fields below but bytes
	err       error                      // the first error of the stream's reader
	terminal  map[string]int64           // uuid → receive time (unix ns)
	lastBody  map[string]json.RawMessage // uuid → last delta or snapshot row
	lastSeq   map[string]uint64
	frameGaps dist // ms between consecutive frames
	bytes     atomic.Int64
}

type deltaHead struct {
	UUID  string `json:"uuid"`
	State string `json:"state"`
	Seq   uint64 `json:"seq"`
}

func dialSSE(url string, p *probe) (*sseClient, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &sseClient{
		p: p, cancel: cancel, done: make(chan struct{}), ready: make(chan struct{}),
		terminal: map[string]int64{}, lastBody: map[string]json.RawMessage{}, lastSeq: map[string]uint64{},
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/api/stream/workflows", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("sse: status %d", resp.StatusCode)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		if err := c.read(resp.Body); err != nil {
			c.fail(err)
		}
	}()
	select {
	case <-c.ready:
		return c, nil
	case <-c.done:
		cancel()
		return nil, fmt.Errorf("sse: stream ended before its snapshot: %v", c.streamErr())
	case <-time.After(10 * time.Second):
		c.close()
		return nil, errors.New("sse: no snapshot within 10s")
	}
}

// close ends the stream and waits for the reader goroutine.
func (c *sseClient) close() {
	c.cancel()
	<-c.done
}

func (c *sseClient) read(r io.Reader) error {
	br := bufio.NewReaderSize(r, 1<<16)
	var event string
	var data []byte
	var lastFrame int64
	for {
		line, err := br.ReadSlice('\n')
		c.bytes.Add(int64(len(line)))
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil
			}
			return err
		}
		line = bytes.TrimRight(line, "\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case len(line) == 0 && event != "":
			now := time.Now().UnixNano()
			c.dispatch(event, data, now)
			if lastFrame != 0 && now-lastFrame > int64(time.Millisecond) {
				// Frames of one flush arrive back to back; a gap over a
				// millisecond separates flushes.
				c.mu.Lock()
				c.frameGaps.add(float64(now-lastFrame) / 1e6)
				c.mu.Unlock()
			}
			lastFrame = now
			event = ""
		}
	}
}

func (c *sseClient) dispatch(event string, data []byte, now int64) {
	switch event {
	case "snapshot", "resync":
		var rows []json.RawMessage
		if err := json.Unmarshal(data, &rows); err != nil {
			c.fail(fmt.Errorf("sse %s: %w", event, err))
			return
		}
		for _, r := range rows {
			c.note(r, now)
		}
		if event == "snapshot" {
			select {
			case <-c.ready:
			default:
				close(c.ready)
			}
		}
	case "delta":
		c.note(json.RawMessage(data), now)
	}
}

// streamErr returns the first error the stream's reader hit, if any.
func (c *sseClient) streamErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *sseClient) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *sseClient) note(raw json.RawMessage, now int64) {
	var h deltaHead
	if err := json.Unmarshal(raw, &h); err != nil {
		c.fail(fmt.Errorf("sse delta: %w", err))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastBody[h.UUID] = append(json.RawMessage(nil), raw...)
	c.lastSeq[h.UUID] = h.Seq
	if h.State != views.StateSuccess && h.State != views.StateFailure {
		return
	}
	if _, seen := c.terminal[h.UUID]; seen {
		return
	}
	last, ok := c.p.in.last[h.UUID]
	if ok && c.p.visibleAt[last].Load() != 0 {
		c.terminal[h.UUID] = now
	}
}

// waitTerminal blocks until every workflow was seen terminal or the
// deadline passes.
func (c *sseClient) waitTerminal(n int, deadline time.Time) {
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := len(c.terminal)
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// lag returns the client lag samples in ms: one per workflow, from the
// send time of the workflow's final line until the client saw it
// terminal.
func (c *sseClient) lag() *dist {
	c.mu.Lock()
	defer c.mu.Unlock()
	d := &dist{}
	for wf, at := range c.terminal {
		d.add(float64(at-c.p.sched(c.p.in.last[wf])) / 1e6)
	}
	return d
}

// countingSink is an in-process SSE subscriber: a ResponseWriter and
// Flusher that counts bytes instead of writing to a socket, so thousands
// of subscribers cost no connections.
type countingSink struct {
	hdr   http.Header
	bytes atomic.Int64
}

func (s *countingSink) Header() http.Header { return s.hdr }
func (s *countingSink) WriteHeader(int)     {}
func (s *countingSink) Flush()              {}
func (s *countingSink) Write(b []byte) (int, error) {
	s.bytes.Add(int64(len(b)))
	return len(b), nil
}

// subscribers attaches n in-process SSE subscribers through the
// dashboard's own handler.
type subscribers struct {
	sinks  []*countingSink
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func attachSubscribers(h http.Handler, n int) (*subscribers, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &subscribers{cancel: cancel}
	for i := 0; i < n; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "/api/stream/workflows", nil)
		if err != nil {
			s.close()
			return nil, err
		}
		sink := &countingSink{hdr: make(http.Header)}
		s.sinks = append(s.sinks, sink)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			h.ServeHTTP(sink, req)
		}()
	}
	return s, nil
}

func (s *subscribers) close() {
	s.cancel()
	s.wg.Wait()
}

func (s *subscribers) bytes() int64 {
	var n int64
	for _, k := range s.sinks {
		n += k.bytes.Load()
	}
	return n
}

// The read mix: the workflow listing plus four per-workflow pages, each
// against a workflow that is already visible.
var readRoutes = []string{"workflows", "workflow", "jobs", "statistics", "progress"}

func readPath(route, uuid string) string {
	switch route {
	case "workflows":
		return "/api/workflows"
	case "workflow":
		return "/api/workflow/" + uuid
	default:
		return "/api/workflow/" + uuid + "/" + route
	}
}

// reader is the dashboard read load: one client cycling through
// readRoutes, one request at a time, starting request k no earlier than
// k/rate seconds in (after a slow request it goes straight on until it is
// back on pace). The cap keeps the number of reads per event fixed, so
// the per-event figures of a run do not move with how fast the reads
// happened to be. With url empty it calls the handler in process instead
// of over HTTP.
type reader struct {
	p       *probe
	h       http.Handler
	url     string
	rate    float64
	stop    chan struct{}
	done    chan struct{}
	lat     map[string]*dist
	all     dist
	issued  int
	errs    int
	errText []string
}

func startReader(p *probe, h http.Handler, url string, rate float64) *reader {
	r := &reader{p: p, h: h, url: url, rate: rate, stop: make(chan struct{}), done: make(chan struct{}), lat: map[string]*dist{}}
	for _, rt := range readRoutes {
		r.lat[rt] = &dist{}
	}
	go r.run()
	return r
}

func (r *reader) halt() {
	close(r.stop)
	<-r.done
}

func (r *reader) run() {
	defer close(r.done)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	start := time.Now()
	for k := 0; ; k++ {
		next := start.Add(time.Duration(float64(k) / r.rate * float64(time.Second)))
		select {
		case <-r.stop:
			return
		case <-time.After(time.Until(next)):
		}
		uuid := r.p.visibleWorkflow(k * 7919)
		if uuid == "" {
			continue
		}
		route := readRoutes[k%len(readRoutes)]
		path := readPath(route, uuid)
		t0 := time.Now()
		err := r.get(client, path)
		d := ms(time.Since(t0))
		r.issued++
		if err != nil {
			r.errs++
			if len(r.errText) < 4 {
				r.errText = append(r.errText, fmt.Sprintf("GET %s: %v", path, err))
			}
		} else {
			r.lat[route].add(d)
			r.all.add(d)
		}
	}
}

// get issues one read and checks it returned 2xx with JSON that parses.
func (r *reader) get(client *http.Client, path string) error {
	var status int
	var body []byte
	if r.url == "" {
		rec := httptest.NewRecorder()
		r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		status, body = rec.Code, rec.Body.Bytes()
	} else {
		resp, err := client.Get(r.url + path)
		if err != nil {
			return err
		}
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		status = resp.StatusCode
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d: %.120s", status, body)
	}
	if !json.Valid(body) {
		return errors.New("response is not valid JSON")
	}
	return nil
}
