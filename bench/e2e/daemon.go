package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vmicache/internal/metrics"
)

// daemon is one real rblockd or vmicached process. Its merged stdout+stderr
// goes to a log file under bench/out and is scanned for the addresses the
// daemon prints after binding 127.0.0.1:0.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	waited  chan struct{}

	mu   sync.Mutex
	cond *sync.Cond
	log  strings.Builder
	eof  bool

	addr        string // rblock address (storage export or peer export)
	metricsAddr string
}

// live tracks running daemons so a fatal error or a signal can stop them.
var live struct {
	sync.Mutex
	procs map[*daemon]struct{}
}

func startDaemon(bin, logPath string, args ...string) (*daemon, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{name: filepath.Base(bin), cmd: exec.Command(bin, args...), logPath: logPath, waited: make(chan struct{})}
	d.cond = sync.NewCond(&d.mu)
	stdout, err := d.cmd.StdoutPipe()
	if err != nil {
		logFile.Close() //nolint:errcheck // nothing written yet
		return nil, err
	}
	d.cmd.Stderr = d.cmd.Stdout // one merged stream
	if err := d.cmd.Start(); err != nil {
		logFile.Close() //nolint:errcheck // nothing written yet
		return nil, fmt.Errorf("starting %s: %w", d.name, err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = make(map[*daemon]struct{})
	}
	live.procs[d] = struct{}{}
	live.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			fmt.Fprintln(logFile, sc.Text())
			d.mu.Lock()
			d.log.WriteString(sc.Text())
			d.log.WriteByte('\n')
			d.cond.Broadcast()
			d.mu.Unlock()
		}
		logFile.Close() //nolint:errcheck // diagnostic log
		d.cmd.Wait()    //nolint:errcheck // exit status is irrelevant once the pipe closed
		d.mu.Lock()
		d.eof = true
		d.cond.Broadcast()
		d.mu.Unlock()
		close(d.waited)
	}()
	return d, nil
}

// waitFor blocks until the daemon's log matches re and returns the first
// submatch.
func (d *daemon) waitFor(re string, timeout time.Duration) (string, error) {
	rx := regexp.MustCompile(re)
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		d.mu.Lock()
		d.cond.Broadcast()
		d.mu.Unlock()
	})
	defer timer.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if m := rx.FindStringSubmatch(d.log.String()); m != nil {
			return m[len(m)-1], nil
		}
		if d.eof || time.Now().After(deadline) {
			return "", fmt.Errorf("%s: no %q in its output (exited=%v); log:\n%s", d.name, re, d.eof, d.log.String())
		}
		d.cond.Wait()
	}
}

// stop sends SIGTERM, waits for the process to end, and kills it if it does
// not drain in time.
func (d *daemon) stop() {
	live.Lock()
	delete(live.procs, d)
	live.Unlock()
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // may have exited already
	select {
	case <-d.waited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // last resort
		<-d.waited
	}
}

// stopAll is the emergency path: signal handler and fatal errors.
func stopAll() {
	live.Lock()
	procs := make([]*daemon, 0, len(live.procs))
	for d := range live.procs {
		procs = append(procs, d)
	}
	live.Unlock()
	for _, d := range procs {
		d.stop()
	}
}

// dumpLog copies the daemon's log to stderr; called when a run fails.
func (d *daemon) dumpLog() {
	d.mu.Lock()
	defer d.mu.Unlock()
	fmt.Fprintf(os.Stderr, "---- %s log (%s) ----\n%s", d.name, d.logPath, d.log.String())
}

// scrape is one /metrics.json document, indexed for the few lookups the
// benchmark makes.
type scrape []metrics.MetricSnapshot

func (d *daemon) scrape() (scrape, error) {
	resp, err := http.Get("http://" + d.metricsAddr + "/metrics.json")
	if err != nil {
		return nil, fmt.Errorf("%s metrics: %w", d.name, err)
	}
	defer resp.Body.Close() //nolint:errcheck // read-only response
	var snap metrics.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("%s metrics: %w", d.name, err)
	}
	return snap.Metrics, nil
}

// find returns the series with the given name whose labels include want.
func (s scrape) find(name string, want metrics.Labels) *metrics.MetricSnapshot {
next:
	for i := range s {
		if s[i].Name != name {
			continue
		}
		for k, v := range want {
			if s[i].Labels[k] != v {
				continue next
			}
		}
		return &s[i]
	}
	return nil
}

func (s scrape) value(name string, want metrics.Labels) int64 {
	if m := s.find(name, want); m != nil {
		return m.Value
	}
	return 0
}

func (s scrape) hist(name string, want metrics.Labels) metrics.HistogramSnapshot {
	if m := s.find(name, want); m != nil && m.Hist != nil {
		return *m.Hist
	}
	return metrics.HistogramSnapshot{}
}

// procUsage is what /proc says a process has cost so far.
type procUsage struct {
	cpuMs     float64 // utime+stime
	rssPeakMB float64 // VmHWM
}

// clockTick is USER_HZ, which Linux fixes at 100 for every architecture Go
// supports.
const clockTick = 100

func readProcUsage(pid int) procUsage {
	var u procUsage
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid)); err == nil {
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		if i := strings.LastIndexByte(string(b), ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseFloat(f[11], 64)
				st, _ := strconv.ParseFloat(f[12], 64)
				u.cpuMs = (ut + st) * 1000 / clockTick
			}
		}
	}
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
				u.rssPeakMB = kb / 1024
			}
		}
	}
	return u
}

func (d *daemon) usage() procUsage {
	if d == nil {
		return procUsage{}
	}
	return readProcUsage(d.cmd.Process.Pid)
}
