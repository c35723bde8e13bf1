package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// tenant is the graph name every workload serves under
// /v1/graphs/{tenant}/….
const tenant = "g"

// graphPath is the route prefix of the served graph.
const graphPath = "/v1/graphs/" + tenant

// child is one running pqserve process in durable multi-tenant mode.
type child struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	log  *os.File
}

// startChild starts `pqserve -data dir` on a free loopback port and
// returns once /readyz answers 200, with the time that took.
func startChild(ctx context.Context, bin, dir string) (*child, time.Duration, error) {
	start := time.Now()
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(filepath.Dir(dir), filepath.Base(dir)+".log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-data", dir, "-addr", addr)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting pqserve: %w", err)
	}
	c := &child{cmd: cmd, addr: addr, dir: dir, log: logf}
	if err := c.waitReady(ctx); err != nil {
		c.kill()
		return nil, 0, err
	}
	return c, time.Since(start), nil
}

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(ctx context.Context) error {
	cl := newClient(c.addr, 1)
	defer cl.close()
	var buf bytes.Buffer
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if status, err := cl.get(ctx, "/readyz", &buf); err == nil && status == 200 {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("pqserve on %s not ready after 30s (log: %s)", c.addr, c.log.Name())
}

// kill sends SIGKILL and waits for the process to exit.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already exited is fine: Wait reports it
	_ = c.cmd.Wait()         // the exit status of a killed process is expected
	c.log.Close()
}

// peakRSSMB is the peak resident set (VmHWM) of process pid in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// cpuTimes is the machine's aggregate CPU time split from /proc/stat.
type cpuTimes struct{ steal, total float64 }

// cpuSteal reads the time the hypervisor gave other guests.
func cpuSteal() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64) // /proc/stat fields are integers
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since is the share of CPU time stolen since before.
func (t cpuTimes) since(before cpuTimes) float64 {
	if t.total <= before.total {
		return 0
	}
	return (t.steal - before.steal) / (t.total - before.total)
}

// cpuTime is the user plus system CPU time pid has used (all threads),
// read from the kernel's per-process CPU clock, which counts in
// nanoseconds (/proc/<pid>/stat counts in 10 ms ticks). The kernel
// charges time the hypervisor stole to steal, not to the process, so on
// a shared host this moves less than wall time.
func cpuTime(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	clock := uintptr((^pid)<<3 | 2) // CPUCLOCK_SCHED of the whole thread group
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}
