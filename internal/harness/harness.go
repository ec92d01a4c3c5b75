// Package harness boots real prever-server PROCESSES on loopback TCP
// and drives them through the wire API — the multi-process companion to
// the in-process fault harness (internal/chaos). Where the rest of the
// test suite exercises the chain through function calls, this harness
// proves the deployable artifact: `go build` the server binary, exec N
// copies on ephemeral ports, wait for /health, submit over HTTP, and
// audit convergence per process.
package harness

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"prever/internal/api"
)

// BuildServer compiles cmd/prever-server into dir and returns the
// binary path. The module root is discovered from `go env GOMOD`, so it
// works from any package's test directory.
func BuildServer(dir string) (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("harness: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("harness: not inside a module (GOMOD=%q)", gomod)
	}
	bin := filepath.Join(dir, "prever-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/prever-server")
	cmd.Dir = filepath.Dir(gomod)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("harness: build prever-server: %v\n%s", err, out)
	}
	return bin, nil
}

// Proc is one running server process.
type Proc struct {
	// Addr is the base URL the process listens on ("http://127.0.0.1:PORT").
	Addr string

	cmd      *exec.Cmd
	stopOnce sync.Once
	stopErr  error
	waitCh   chan error
}

// startTimeout bounds how long a process may take to print its
// listening line. A variable so tests can exercise the deadline path
// without waiting out the production value.
var startTimeout = 30 * time.Second

// Start execs the server binary with -addr 127.0.0.1:0 plus extraArgs
// and blocks until the process prints its "listening on" contract line,
// from which the ephemeral port is learned. Stderr passes through to
// the test's stderr for debuggability.
func Start(bin string, extraArgs ...string) (*Proc, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &Proc{cmd: cmd, waitCh: make(chan error, 1)}
	go func() { p.waitCh <- cmd.Wait() }()

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if _, after, ok := strings.Cut(line, "listening on "); ok {
				addrCh <- strings.TrimSpace(after)
				// Keep draining so the child never blocks on a full pipe.
				_, _ = io.Copy(io.Discard, stdout)
				return
			}
		}
		errCh <- fmt.Errorf("harness: server exited before printing its address (scan err: %v)", sc.Err())
	}()

	startTmr := time.NewTimer(startTimeout)
	defer startTmr.Stop()
	select {
	case addr := <-addrCh:
		p.Addr = addr
		return p, nil
	case err := <-errCh:
		_ = p.Stop()
		return nil, err
	case <-startTmr.C:
		_ = p.Stop()
		return nil, fmt.Errorf("harness: server did not print its address within %s", startTimeout)
	}
}

// Client returns a wire client for this process.
func (p *Proc) Client() *api.Client { return api.NewClient(p.Addr) }

// Stop shuts the process down: SIGTERM first (the server's graceful
// path), SIGKILL if it lingers. Safe to call more than once.
func (p *Proc) Stop() error {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		killTmr := time.NewTimer(10 * time.Second)
		defer killTmr.Stop()
		select {
		case err := <-p.waitCh:
			p.stopErr = err
		case <-killTmr.C:
			_ = p.cmd.Process.Kill()
			p.stopErr = fmt.Errorf("harness: server ignored SIGTERM, killed")
			<-p.waitCh
		}
	})
	return p.stopErr
}

// Kill sends SIGKILL immediately — no graceful shutdown, no WAL close,
// the crash a power cut or OOM kill delivers. Safe to call more than
// once; after Kill the process's data directory is exactly what fsync
// made durable.
func (p *Proc) Kill() error {
	p.stopOnce.Do(func() {
		_ = p.cmd.Process.Kill()
		p.stopErr = <-p.waitCh
	})
	return p.stopErr
}

// WaitHealthy polls GET /health until the process answers ok.
func (p *Proc) WaitHealthy(timeout time.Duration) error {
	client := p.Client()
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		h, err := client.Health()
		if err == nil && h.Status == "ok" {
			return nil
		}
		lastErr = err
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("harness: %s never became healthy: %v", p.Addr, lastErr)
}
