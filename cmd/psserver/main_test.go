package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"cynthia/internal/obs"
	"cynthia/internal/ps"
)

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("784, 512,10")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 784 || got[2] != 10 {
		t.Errorf("parseSizes = %v", got)
	}
	if _, err := parseSizes("784,abc"); err == nil {
		t.Error("bad size accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("127.0.0.1:0", "784,10", 2, 2, 1, "bsp", "sgd", 0, 0.1, 1, "", false); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := run("127.0.0.1:0", "784,10", 0, 1, 1, "ssp", "sgd", 0, 0.1, 1, "", false); err == nil {
		t.Error("unknown sync accepted")
	}
	if err := run("127.0.0.1:0", "bad", 0, 1, 1, "bsp", "sgd", 0, 0.1, 1, "", false); err == nil {
		t.Error("bad sizes accepted")
	}
}

func TestRunRejectsBadOptimizer(t *testing.T) {
	if err := run("127.0.0.1:0", "784,10", 0, 1, 1, "bsp", "lamb", 0, 0.1, 1, "", false); err == nil {
		t.Error("unknown optimizer accepted")
	}
}

// startShard boots a one-worker shard on an ephemeral port for the
// shutdown tests.
func startShard(t *testing.T) (*ps.Server, string) {
	t.Helper()
	srv, err := ps.NewServer(ps.ServerConfig{Init: make([]float64, 8), Workers: 1, LR: 0.1, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return srv, bound
}

// fetchOnce runs one protocol round trip over conn as the shard's worker
// 0: a hello, then a sync with an empty gradient, which the server
// answers with its parameters. Once it returns, the server holds conn.
// Frames are internal/ps's wire format: type (hello 1, sync 2, params 3),
// payload length as 4 bytes little-endian, payload.
func fetchOnce(t *testing.T, conn net.Conn) {
	t.Helper()
	frame := func(typ byte, payload []byte) []byte {
		return append(binary.LittleEndian.AppendUint32([]byte{typ}, uint32(len(payload))), payload...)
	}
	hello := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 8) // worker 0, 8 params
	fetch := binary.LittleEndian.AppendUint32(nil, 0)                                      // step 0, no gradient
	if _, err := conn.Write(append(frame(1, hello), frame(2, fetch)...)); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(conn, hdr); err != nil {
		t.Fatal(err)
	}
	if hdr[0] != 3 { // params
		t.Fatalf("fetch answered with frame type %d, want params", hdr[0])
	}
	if _, err := io.ReadFull(conn, make([]byte, binary.LittleEndian.Uint32(hdr[1:]))); err != nil {
		t.Fatal(err)
	}
}

// TestAwaitShutdownDrainsWorkers pins the graceful path: after the first
// signal no new worker can connect, a live connection keeps the server
// up, and shutdown completes once the worker disconnects on its own.
func TestAwaitShutdownDrainsWorkers(t *testing.T) {
	srv, bound := startShard(t)
	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	fetchOnce(t, conn) // the server holds conn before the signal
	sig := make(chan os.Signal, 2)
	done := make(chan struct{})
	go func() {
		awaitShutdown(srv, sig, 5*time.Second)
		close(done)
	}()
	sig <- os.Interrupt
	// The listener must close promptly; the live connection must survive.
	deadline := time.Now().Add(2 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", bound, 100*time.Millisecond)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after the drain signal")
		}
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("shutdown completed with a live worker connection")
	case <-time.After(100 * time.Millisecond):
	}
	conn.Close() // worker finishes; the drain completes
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("shutdown did not complete after the last worker left")
	}
}

// TestAwaitShutdownSecondSignalForces pins the force path: a second
// signal cuts the drain short even with a worker still connected.
func TestAwaitShutdownSecondSignalForces(t *testing.T) {
	srv, bound := startShard(t)
	conn, err := net.Dial("tcp", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sig := make(chan os.Signal, 2)
	done := make(chan struct{})
	go func() {
		awaitShutdown(srv, sig, time.Hour) // only the second signal can end this
		close(done)
	}()
	sig <- os.Interrupt
	time.Sleep(50 * time.Millisecond)
	sig <- os.Interrupt
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second signal did not force shutdown")
	}
}

// TestServeMetrics spins up a PS shard's registry behind serveMetrics and
// checks the scrape includes the server's counter families.
func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := ps.NewServer(ps.ServerConfig{Init: make([]float64, 8), Workers: 1, LR: 0.1, Obs: reg}); err != nil {
		t.Fatal(err)
	}
	addr, closer, err := serveMetrics("127.0.0.1:0", reg, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closer()

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	text := get("/metrics")
	for _, want := range []string{"cynthia_ps_push_total", "cynthia_ps_push_bytes_total", "cynthia_ps_push_latency_seconds_bucket"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	snap := get("/debug/snapshot")
	if !strings.Contains(snap, "cynthia_ps_push_total") {
		t.Errorf("/debug/snapshot missing cynthia_ps_push_total: %s", snap)
	}
}

// TestServeMetricsPprof pins the -pprof wiring: the profile index mounts
// beside /metrics, and stays absent without the flag.
func TestServeMetricsPprof(t *testing.T) {
	status := func(pprofOn bool, path string) int {
		t.Helper()
		addr, closer, err := serveMetrics("127.0.0.1:0", obs.NewRegistry(), pprofOn)
		if err != nil {
			t.Fatal(err)
		}
		defer closer()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status(true, "/debug/pprof/heap"); got != http.StatusOK {
		t.Errorf("pprof heap with -pprof: status %d", got)
	}
	if got := status(true, "/metrics"); got != http.StatusOK {
		t.Errorf("/metrics with -pprof: status %d", got)
	}
	if got := status(false, "/debug/pprof/heap"); got == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}
