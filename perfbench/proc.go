package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux architecture Go supports without cgo's sysconf.
const clockTicks = 100

// proc is one program binary started as its own process: a serve replica
// or the fleet router. The benchmark owns it and must stop it.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	err  error         // Wait's result, valid after done
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// startProc launches bin with args plus "-addr <free port>" and returns
// once the process is running (not yet ready). Its stderr log (one JSON
// line per request) goes to logPath.
func startProc(name, bin, logPath string, args []string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("%s log: %w", name, err)
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// launch starts a process and waits until ready accepts its path. A
// process that exits first is started again on another port, up to three
// times: the port freeAddr released can be taken by an outgoing
// connection before the process binds it.
func launch(client *http.Client, name, bin, logPath string, args []string, path string, ready func([]byte) bool) (*proc, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var p *proc
		p, err = startProc(name, bin, logPath, args)
		if err != nil {
			return nil, err
		}
		if err = p.waitReady(client, path, 30*time.Second, ready); err == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, err
}

// waitReady polls path on the process until ready accepts the body of a
// 200 response, the process exits, or timeout passes.
func (p *proc) waitReady(client *http.Client, path string, timeout time.Duration, ready func([]byte) bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before ready: %v", p.name, p.err)
		default:
		}
		if resp, err := client.Get(p.url + path); err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (ready == nil || ready(body)) {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", p.name, timeout)
}

// stop sends SIGTERM, waits for a graceful exit, and kills after a grace
// period. It returns only once the process has ended.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an exited process is caught by done below
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// procCPU returns utime+stime of pid in seconds from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	return (ut + st) / clockTicks, nil
}

// cpuTimes is the machine-wide CPU time from the first line of /proc/stat,
// in clock ticks.
type cpuTimes struct{ steal, total float64 }

func readCPUTimes() (cpuTimes, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("malformed /proc/stat")
	}
	var t cpuTimes
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("parse /proc/stat: %w", err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of the machine's CPU time the hypervisor gave to
// other guests between two readings.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

// procHWM returns the peak resident set (VmHWM) of pid in MB.
func procHWM(pid int) (float64, error) { return procStatusMB(pid, "VmHWM") }

// procStatusMB returns a kB field of /proc/<pid>/status in MB.
func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

// cpuOf sums procCPU over processes.
func cpuOf(ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		c, err := procCPU(p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// hwmOf sums the peak resident sets of processes.
func hwmOf(ps []*proc) (float64, error) {
	total := 0.0
	for _, p := range ps {
		h, err := procHWM(p.pid())
		if err != nil {
			return 0, err
		}
		total += h
	}
	return total, nil
}

// scrape is one Prometheus text exposition: series text -> value.
type scrape map[string]float64

// scrapeMetrics fetches and parses url/metrics.
func scrapeMetrics(ctx context.Context, client *http.Client, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	out, err := parseExposition(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return out, nil
}

// parseExposition reads Prometheus text exposition.
func parseExposition(r io.Reader) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// Exemplars follow " # "; the sample is "<series> <value>".
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of family name whose label text contains all of
// the given label fragments (e.g. `result="hit"`).
func (s scrape) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// scrapeAll scrapes every process.
func scrapeAll(ctx context.Context, client *http.Client, ps []*proc) ([]scrape, error) {
	out := make([]scrape, len(ps))
	for i, p := range ps {
		s, err := scrapeMetrics(ctx, client, p.url)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

// delta sums family name (filtered by labels) over the after scrapes minus
// the before scrapes: counters move under health probes too, so only the
// change across a timed phase is attributed to it.
func delta(before, after []scrape, name string, labels ...string) float64 {
	d := 0.0
	for i := range after {
		d += after[i].sum(name, labels...) - before[i].sum(name, labels...)
	}
	return d
}
