package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const apiKey = "bench-key"

// children is every process the harness has started and not yet reaped,
// so exit, a signal or a panic can take them all down.
var children struct {
	mu   sync.Mutex
	live map[*node]struct{}
}

func killAllChildren() {
	children.mu.Lock()
	nodes := make([]*node, 0, len(children.live))
	for n := range children.live {
		nodes = append(nodes, n)
	}
	children.mu.Unlock()
	for _, n := range nodes {
		n.kill()
	}
}

// killChildrenOnSignal makes an interrupted run leave no server behind.
func killChildrenOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		killAllChildren()
		os.Exit(130)
	}()
}

// repoRoot finds the module root from the working directory, so the
// harness runs the same from the root (go run ./bench) and from bench/
// (go test ./bench/...).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "hcservd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no go.mod with cmd/hcservd above the working directory; run from the repository")
		}
		dir = parent
	}
}

// buildServer compiles hcservd from the checkout the harness runs in.
func buildServer(root, outDir string) (bin string, took time.Duration, err error) {
	bin = filepath.Join(outDir, "bin", "hcservd")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hcservd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building hcservd: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// node is one running hcservd.
type node struct {
	cmd   *exec.Cmd
	api   string // base URL of the public listener
	admin string // base URL of the admin listener
	dir   string // holds wal.log, snap.json and the term sidecar
	done  chan struct{}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// probeClient polls readiness; separate from the load connections so a
// probe never occupies one of them.
var probeClient = &http.Client{Timeout: 2 * time.Second}

// startNode execs hcservd on free loopback ports over the state in dir and
// returns once it serves, with the time from exec to ready. A lost race
// for a port shows as an early exit and is retried on fresh ports.
func startNode(bin, dir string, logf io.Writer, extra ...string) (*node, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		apiPort, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		adminPort, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		n := &node{
			api:   fmt.Sprintf("http://127.0.0.1:%d", apiPort),
			admin: fmt.Sprintf("http://127.0.0.1:%d", adminPort),
			dir:   dir,
			done:  make(chan struct{}),
		}
		args := append([]string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", apiPort),
			"-admin-addr", fmt.Sprintf("127.0.0.1:%d", adminPort),
			"-wal", filepath.Join(dir, "wal.log"),
			"-snapshot", filepath.Join(dir, "snap.json"),
			"-api-keys", apiKey,
		}, extra...)
		n.cmd = exec.Command(bin, args...)
		n.cmd.Stdout = logf
		n.cmd.Stderr = logf
		// Own process group, so a signal aimed at the harness's group does
		// not reach the server before the harness has decided what to do;
		// Pdeathsig, so the server cannot outlive a harness that was
		// SIGKILLed and never got to clean up.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := n.cmd.Start(); err != nil {
			return nil, 0, err
		}
		children.mu.Lock()
		if children.live == nil {
			children.live = make(map[*node]struct{})
		}
		children.live[n] = struct{}{}
		children.mu.Unlock()
		go func() {
			_ = n.cmd.Wait() // the exit status of a process we SIGKILL says nothing
			close(n.done)
		}()
		if err := n.waitReady(60 * time.Second); err != nil {
			n.kill()
			lastErr = err
			continue
		}
		return n, time.Since(start), nil
	}
	return nil, 0, fmt.Errorf("starting hcservd: %w", lastErr)
}

func (n *node) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, url := range []string{n.admin + "/readyz", n.api + "/healthz"} {
		for {
			select {
			case <-n.done:
				return errors.New("hcservd exited before it was ready")
			default:
			}
			resp, err := probeClient.Get(url)
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("hcservd not ready after %s", limit)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// kill SIGKILLs the process and waits until it is gone: the crash the
// recovery checks are about, and the only way the harness stops a node.
func (n *node) kill() {
	_ = n.cmd.Process.Kill()
	<-n.done
	children.mu.Lock()
	delete(children.live, n)
	children.mu.Unlock()
}

// cpuMs reads the process's cumulative user and system CPU time.
func (n *node) cpuMs() (user, sys float64, err error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, 0, errors.New("short /proc stat")
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	const msPerTick = 10 // USER_HZ is 100 on every Linux Go runs on
	return ut * msPerTick, st * msPerTick, nil
}

// hostCPU reads the machine's cumulative CPU time and the part of it the
// hypervisor gave to other guests, in jiffies summed over CPUs.
func hostCPU() (total, steal float64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal guest guest_nice
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, errors.New("unexpected /proc/stat")
	}
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal, nil
}

// hwmMiB reads the process's peak resident set size.
func (n *node) hwmMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads the admin /metrics page into name → value (labels kept in
// the name as written) and reports how long the scrape took.
func (n *node) scrape() (map[string]float64, time.Duration, error) {
	start := time.Now()
	resp, err := probeClient.Get(n.admin + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, took, nil
}
