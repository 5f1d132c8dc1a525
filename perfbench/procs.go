package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// toolRun is one finished run of a command-line tool.
type toolRun struct {
	stdout []byte
	took   time.Duration
	rssMB  float64 // peak resident set (ru_maxrss) of the process
}

// runTool runs bin with args in dir, appending its stderr to logPath, and
// fails with the log's tail when it exits non-zero.
func runTool(ctx context.Context, dir, logPath, bin string, args ...string) (toolRun, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return toolRun{}, err
	}
	defer logf.Close()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Dir = dir
	cmd.Stdout = &out
	cmd.Stderr = logf
	start := time.Now()
	err = cmd.Run()
	res := toolRun{stdout: out.Bytes(), took: time.Since(start)}
	if cmd.ProcessState != nil {
		res.rssMB = maxRSSMB(cmd.ProcessState)
	}
	if err != nil {
		return res, fmt.Errorf("%s %v: %w (stderr in %s)\n%s", bin, args, err, logPath, lastLines(logPath, 10))
	}
	return res, nil
}

// dieWithParent makes the kernel kill a child when the benchmark dies,
// so a killed run never leaves a server or job behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// maxRSSMB reads a finished process's peak resident set size.
func maxRSSMB(st *os.ProcessState) float64 {
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// lastLines returns up to n trailing lines of a log file.
func lastLines(path string, n int) string {
	raw, _ := os.ReadFile(path) // best effort: only decorates an error
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}

// server is a running wym-server on loopback.
type server struct {
	cmd   *exec.Cmd
	base  string // public URL
	admin string // admin URL (GET /metrics)
	done  chan struct{}
	err   error // Wait's result, valid after done closes
}

// startServer launches wym-server with args plus loopback listen
// addresses and returns once /healthz answers.
func startServer(bin, dir, logPath string, args ...string) (*server, error) {
	pub, err := freeAddr()
	if err != nil {
		return nil, err
	}
	adm, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append(args, "-addr", pub, "-admin-addr", adm)...)
	cmd.SysProcAttr = dieWithParent()
	cmd.Dir = dir
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + pub, admin: "http://" + adm, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		select {
		case <-s.done:
			return nil, fmt.Errorf("wym-server exited during start-up: %v\n%s", s.err, lastLines(logPath, 10))
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("wym-server not healthy after 60s\n%s", lastLines(logPath, 10))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM (SIGKILL after 20s), waits for it
// to exit and returns its peak resident set size.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		select {
		case <-s.done: // already gone
		default:
			return 0, err
		}
	}
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
		return 0, fmt.Errorf("wym-server ignored SIGTERM for 20s")
	}
	if s.err != nil {
		return 0, fmt.Errorf("wym-server: %w", s.err)
	}
	return maxRSSMB(s.cmd.ProcessState), nil
}

// kill stops the server at once and waits for it; safe to call after
// stop.
func (s *server) kill() {
	select {
	case <-s.done:
		return
	default:
	}
	_ = s.cmd.Process.Kill() // racing a normal exit is harmless
	<-s.done
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}
