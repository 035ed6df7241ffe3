package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read server output while run is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-addr"},                       // missing value
		{"-workers", "x"},               // non-integer
		{"positional"},                  // unexpected argument
		{"-addr", "127.0.0.1:notaport"}, // unusable listen address
		// Non-positive values are configuration typos, not requests for the
		// defaults; the server must refuse to start rather than silently
		// substitute them (regression: these used to boot with defaults).
		{"-workers", "0"},
		{"-workers", "-3"},
		{"-cache-size", "0"},
		{"-cache-size", "-1"},
		{"-quota-slots", "-1"},
		{"-quota-weight", "team-a=2"},                      // weight without -quota-slots
		{"-quota-slots", "1", "-quota-weight", "team-a"},   // missing =w
		{"-quota-slots", "1", "-quota-weight", "team-a=0"}, // weight < 1
		{"-quota-slots", "1", "-quota-weight", "=2"},       // empty tenant
		{"-transfer"},                                      // transfer without a store
	}
	for _, args := range cases {
		var out syncBuffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// TestRunServesAndDrains boots the real binary entrypoint on an ephemeral
// port, talks to it over HTTP, then cancels the context (the SIGINT path)
// and verifies a clean drain.
func TestRunServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out)
	}()

	// Wait for the listen line to learn the port.
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not report a listen address; output: %q", out.String())
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	body := `{
		"tenant": "cli-test",
		"devices": [{"preset": "fast", "seed": 1}, {"preset": "slow", "seed": 2}],
		"grid": {"lo": 16, "hi": 2000, "n": 8},
		"d": 5000
	}`
	resp, err = http.Post(base+"/v1/partition", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Algorithm string `json:"algorithm"`
		D         int    `json:"d"`
		Parts     []struct {
			Device string `json:"device"`
			Units  int    `json:"units"`
		} `json:"parts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: status %d", resp.StatusCode)
	}
	if pr.Algorithm != "geometric" || pr.D != 5000 || len(pr.Parts) != 2 {
		t.Fatalf("unexpected partition response: %+v", pr)
	}
	if total := pr.Parts[0].Units + pr.Parts[1].Units; total != 5000 {
		t.Errorf("parts sum to %d, want 5000", total)
	}
	if pr.Parts[0].Device != "fast" || pr.Parts[1].Device != "slow" {
		t.Errorf("parts out of device order: %+v", pr.Parts)
	}

	// SIGINT path: cancel the context and expect a clean exit.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	for _, want := range []string{"draining", "stopped"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunBootsWithTransfer: the -transfer flag reaches the service and a
// transfer-enabled server starts, serves and drains cleanly.
func TestRunBootsWithTransfer(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-workers", "2",
			"-store-dir", t.TempDir(), "-transfer",
		}, &out)
	}()
	var base string
	deadline := time.Now().Add(5 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not report a listen address; output: %q", out.String())
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			base = "http://" + m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("transfer-enabled server failed to drain: %v", err)
	}
}

func TestRunRejectsBusyAddress(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0"}, &out)
	}()
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not start; output: %q", out.String())
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	var out2 syncBuffer
	if err := run(context.Background(), []string{"-addr", addr}, &out2); err == nil {
		t.Error("second listener on the same address should fail")
	} else if !strings.Contains(err.Error(), "address already in use") {
		t.Logf("note: bind error was %v", err) // message is OS-specific; any error is fine
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("first server failed to drain: %v", err)
	}
}

// TestRunDrainsIdleDials: connections dialled but never used do not hold
// the drain. With three of them open and nothing in flight, run returns
// at once after cancel, not after http.Server's 5 s allowance for a
// connection to send its first request.
func TestRunDrainsIdleDials(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1"}, &out)
	}()
	var addr string
	deadline := time.Now().Add(5 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server did not report a listen address; output: %q", out.String())
		}
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// The listener hands out connections in the order they were dialled,
	// so once a later connection is served the idle ones are accepted.
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after cancel, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
	if d := time.Since(start); d >= time.Second {
		t.Errorf("drain with three idle dials took %s, want under 1 s", d)
	}
}
