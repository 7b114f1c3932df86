package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"eventorder/internal/service"
)

// serverConfig is the service.Config cmd/eventorderd builds from its
// default flags, with the logger discarding.
func serverConfig() service.Config {
	return service.Config{
		QueueDepth:     64,
		CacheBytes:     32 << 20,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     5 * time.Minute,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
	}
}

// server is one in-process eventorderd on a loopback listener.
type server struct {
	svc  *service.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
	// client's transport is closed with the server, so no connection
	// goroutine outlives it.
	client *http.Client
}

// bootServer starts eventorderd and waits for the first 200 from
// /healthz. It returns the boot time, from service.New to that 200.
func bootServer(ctx context.Context) (*server, time.Duration, error) {
	start := time.Now()
	svc, err := service.New(serverConfig())
	if err != nil {
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, 0, fmt.Errorf("boot: %w", err)
	}
	s := &server{
		svc:    svc,
		http:   &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:    "http://" + ln.Addr().String(),
		done:   make(chan struct{}),
		client: newClient(),
	}
	go func() {
		defer close(s.done)
		_ = s.http.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	for {
		status, _, err := s.get(ctx, "/healthz")
		if err == nil && status == http.StatusOK {
			return s, time.Since(start), nil
		}
		if ctx.Err() != nil {
			s.close()
			return nil, 0, fmt.Errorf("boot: %w", ctx.Err())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// close drains the analysis workers, then closes HTTP connections and
// the listener (the order cmd/eventorderd uses), and waits for Serve.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.svc.Shutdown(ctx) // a timeout force-cancels running jobs
	if err := s.http.Shutdown(ctx); err != nil {
		_ = s.http.Close()
	}
	<-s.done
	s.client.CloseIdleConnections()
}

// newClient returns a client that holds at most one connection, so the
// closed loop reuses a single keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func (s *server) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return do(s.client, req)
}

// post sends body to path with c and returns the status and full body.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(c, req)
}

func do(c *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// metrics reads the server's /metrics counters and gauges.
func (s *server) metrics(ctx context.Context) (map[string]float64, error) {
	status, body, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", status)
	}
	var snap service.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := make(map[string]float64, len(snap.Counters)+len(snap.Gauges))
	for name, v := range snap.Counters {
		out[name] = float64(v)
	}
	for name, v := range snap.Gauges {
		out[name] = float64(v)
	}
	return out, nil
}

// bootTimes boots and closes n servers and returns each boot time in
// nanoseconds.
func bootTimes(ctx context.Context, n int) ([]float64, error) {
	runtime.GC() // boot on a collected heap, whatever the last phase left
	boots := make([]float64, 0, n)
	for range n {
		s, d, err := bootServer(ctx)
		if err != nil {
			return boots, err
		}
		s.close()
		boots = append(boots, float64(d))
	}
	return boots, nil
}

// Cache fill. The default 32 MiB result cache takes minutes of small
// results to fill, so peak RSS would grow with run length. Before timing,
// the benchmark fills it to its budget with large results the planner
// decides cheaply (one process of fillEvents labelled assignments, so
// every pair is ordered), and the timed requests then replace them.

const fillEvents = 80

func fillProgram(j int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "var fill%d\nproc p {\n", j)
	for k := range fillEvents {
		fmt.Fprintf(&b, "    f%d: fill%d := %d\n", k, j, k)
	}
	b.WriteString("}\n")
	return b.String()
}

// fillCache sends fill requests until the cache evicts, that is, until it
// holds its budget. It returns the number of fill requests sent.
func (s *server) fillCache(ctx context.Context) (int, error) {
	const maxFill = 2000 // 32 MiB takes about 240
	client := newClient()
	defer client.CloseIdleConnections()
	for j := range maxFill {
		if err := s.fillOne(ctx, client, j); err != nil {
			return j + 1, err
		}
		if j%16 == 15 {
			m, err := s.metrics(ctx)
			if err != nil {
				return j + 1, err
			}
			if m[service.MetricCacheEvictions] > 0 {
				return j + 1, nil
			}
		}
	}
	return maxFill, errors.New("cache fill: the cache never evicted")
}

func (s *server) fillOne(ctx context.Context, client *http.Client, j int) error {
	body, err := json.Marshal(service.AnalyzeRequest{ExecutionSource: service.ExecutionSource{Program: fillProgram(j)}, All: true})
	if err != nil {
		return err
	}
	status, resp, err := post(ctx, client, s.url+"/v1/analyze", body)
	if err != nil {
		return fmt.Errorf("cache fill: %w", err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("cache fill: status %d: %s", status, resp)
	}
	return nil
}
