package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is a program process the benchmark started. Every proc is
// registered so that any exit path — error, watchdog, signal — can stop
// it and wait for it.
type proc struct {
	name string
	cmd  *exec.Cmd

	mu     sync.Mutex
	lines  []string // stderr, kept for diagnostics
	lineCh chan string
	waited chan struct{}
	state  *os.ProcessState
	werr   error
	hwmKB  int64 // peak VmHWM sampled so far
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// startProc starts bin with args; stdout goes to stdout (nil discards).
// Stderr lines are collected and, until the first caller stops
// listening, forwarded on lineCh.
func startProc(name, bin string, args []string, stdout io.Writer) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stdout = stdout
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, lineCh: make(chan string, 64), waited: make(chan struct{})}
	procsMu.Lock()
	defer procsMu.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	procs = append(procs, p)
	go p.watchHWM()
	go func() {
		sc := bufio.NewScanner(errPipe)
		for sc.Scan() {
			p.mu.Lock()
			p.lines = append(p.lines, sc.Text())
			p.mu.Unlock()
			select {
			case p.lineCh <- sc.Text():
			default:
			}
		}
		close(p.lineCh)
		p.werr = cmd.Wait()
		p.state = cmd.ProcessState
		close(p.waited)
	}()
	return p, nil
}

// awaitLine waits for a stderr line containing marker and returns the
// text after it.
func (p *proc) awaitLine(marker string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lineCh:
			if !ok {
				return "", fmt.Errorf("%s exited before printing %q: %s", p.name, marker, p.stderr())
			}
			if i := strings.Index(line, marker); i >= 0 {
				return strings.TrimSpace(line[i+len(marker):]), nil
			}
		case <-deadline:
			return "", fmt.Errorf("%s printed no %q within %v", p.name, marker, timeout)
		}
	}
}

func (p *proc) stderr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.lines, "\n")
}

// wait blocks until the process has exited or the timeout passes.
func (p *proc) wait(timeout time.Duration) error {
	select {
	case <-p.waited:
		return p.werr
	case <-time.After(timeout):
		return fmt.Errorf("%s still running after %v", p.name, timeout)
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.waited:
		return true
	default:
		return false
	}
}

// stop sends sig, waits up to grace, then kills; it always waits for
// the process to end.
func (p *proc) stop(sig os.Signal, grace time.Duration) {
	if p.exited() {
		return
	}
	p.sampleHWM()
	_ = p.cmd.Process.Signal(sig) // an exited process cannot be signalled; wait below covers it
	if p.wait(grace) != nil && !p.exited() {
		_ = p.cmd.Process.Kill()
		<-p.waited
	}
}

// cpuTicks reads the process's user+system CPU time from
// /proc/<pid>/stat, in clock ticks.
func (p *proc) cpuTicks() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields count from
	// after its closing parenthesis.
	rest := data[bytes.LastIndexByte(data, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %s", p.name)
	}
	return utime + stime, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// cpuTotal is the exited process's user+system CPU time.
func (p *proc) cpuTotal() time.Duration {
	if p.state == nil {
		return 0
	}
	return p.state.UserTime() + p.state.SystemTime()
}

// maxRSSMB is the process's peak resident set size in MiB, as last
// sampled; stop samples it once more before signalling.
func (p *proc) maxRSSMB() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(p.hwmKB) / 1024
}

// watchHWM samples the process's peak resident set, VmHWM in
// /proc/<pid>/status, every 10 ms until it exits. The rusage of the
// exited child would not do: Go starts a child sharing the parent's
// address space until exec (vfork), and Linux carries that address
// space's peak into the child's ru_maxrss, so a daemon started late in a
// run reported the benchmark's own peak, up to 38 MiB against its own
// 21–26.
func (p *proc) watchHWM() {
	t := time.NewTicker(10 * time.Millisecond)
	defer t.Stop()
	for {
		p.sampleHWM()
		select {
		case <-p.waited:
			return
		case <-t.C:
		}
	}
}

func (p *proc) sampleHWM() {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return // exited
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err == nil {
				p.mu.Lock()
				p.hwmKB = max(p.hwmKB, kb)
				p.mu.Unlock()
			}
			return
		}
	}
}

// stopAll stops every process still running; exit paths call it.
func stopAll() {
	procsMu.Lock()
	ps := append([]*proc(nil), procs...)
	procsMu.Unlock()
	for _, p := range ps {
		p.stop(syscall.SIGKILL, 5*time.Second)
	}
}
