package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux the harness targets).
const clockTicks = 100

// node is one spmt-server child process on loopback.
type node struct {
	URL string
	Dir string // its disk store
	cmd *exec.Cmd
	// exited closes once the process has been reaped.
	exited chan struct{}
	err    error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startNode boots the server binary on addr with its store in dir and
// waits until /readyz answers. extra is appended to the flags.
func startNode(bin, addr, dir string, extra ...string) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	log, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	defer log.Close()
	args := append([]string{"-addr", addr, "-parallel", strconv.Itoa(nproc()), "-store-dir", dir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// A harness that dies must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	n := &node{URL: "http://" + addr, Dir: dir, cmd: cmd, exited: make(chan struct{})}
	go func() {
		n.err = cmd.Wait()
		close(n.exited)
	}()
	if err := n.waitReady(60 * time.Second); err != nil {
		n.kill()
		return nil, err
	}
	return n, nil
}

func (n *node) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	c := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-n.exited:
			return fmt.Errorf("node %s exited during boot: %v (see %s.log)", n.URL, n.err, n.Dir)
		default:
		}
		resp, err := c.Get(n.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("node %s not ready after %v", n.URL, limit)
}

// stop asks the node to drain (SIGTERM flushes its disk writer) and
// waits for it to exit, killing it if it does not within the limit.
func (n *node) stop() error {
	n.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // an exited process is what we want
	select {
	case <-n.exited:
		return nil
	case <-time.After(60 * time.Second):
		n.kill()
		return fmt.Errorf("node %s did not drain within 60s", n.URL)
	}
}

// kill ends the node at once and reaps it; safe to repeat.
func (n *node) kill() {
	n.cmd.Process.Kill() //nolint:errcheck // an exited process is what we want
	<-n.exited
}

// cpuSeconds is the node's user+system CPU time so far.
func (n *node) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %d", n.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %d", n.cmd.Process.Pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB is the node's peak resident set (VmHWM) in MB.
func (n *node) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %d", n.cmd.Process.Pid)
}

// nodes is a set of child processes.
type nodes []*node

// workDir is a fresh temporary directory for one run's stores and logs,
// inside the checkout.
func workDir(root, workload string, seed int64) (string, error) {
	dir := filepath.Join(root, "tmp", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
