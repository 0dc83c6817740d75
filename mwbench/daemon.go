package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running `maxwarp serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	exit chan error // receives cmd.Wait's result once
	// setup is the time from process start until /readyz answered 200.
	setup time.Duration

	stopOnce sync.Once
	stopErr  error
}

// startDaemon starts `maxwarp serve` with default settings on an ephemeral
// port and waits until it is ready. The child is killed if the benchmark
// dies first.
func startDaemon(ctx context.Context, bin, workdir, graphs string) (*daemon, error) {
	addrFile := filepath.Join(workdir, "serve.addr")
	if err := os.Remove(addrFile); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	logFile, err := os.Create(filepath.Join(workdir, "serve.log"))
	if err != nil {
		return nil, err
	}
	defer logFile.Close()
	t0 := time.Now()
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-graphs", graphs)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s serve: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exit: make(chan error, 1)}
	go func() { d.exit <- cmd.Wait() }()
	if err := d.waitReady(ctx, addrFile, 60*time.Second); err != nil {
		_ = d.stop()
		return nil, err
	}
	d.setup = time.Since(t0)
	return d, nil
}

// waitReady polls for the bound address, then for /readyz = 200. The short
// poll period keeps the set-up time's resolution well below its size.
func (d *daemon) waitReady(ctx context.Context, addrFile string, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	tick := time.NewTicker(250 * time.Microsecond)
	defer tick.Stop()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		select {
		case err := <-d.exit:
			d.exit <- err
			return fmt.Errorf("maxwarp serve exited before ready: %v", err)
		case <-ctx.Done():
			return fmt.Errorf("maxwarp serve not ready: %w", ctx.Err())
		case <-tick.C:
		}
		if d.url == "" {
			addr, err := os.ReadFile(addrFile)
			if err != nil || len(addr) == 0 {
				continue
			}
			d.url = "http://" + strings.TrimSpace(string(addr))
		}
		resp, err := client.Get(d.url + "/readyz")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
}

// peakRSSMB returns the daemon's peak resident set in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// stop drains the daemon with SIGTERM, kills it if it has not exited after
// ten seconds, and waits for it to end. Calls after the first return the
// first call's result.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() { d.stopErr = d.terminate() })
	return d.stopErr
}

func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = d.cmd.Process.Kill()
	}
	select {
	case <-d.exit:
		return nil
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exit
		return fmt.Errorf("maxwarp serve did not drain within 10s")
	}
}
