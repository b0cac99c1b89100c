package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// childEnv is the environment every program under test runs with: the
// driver's own, minus GOMAXPROCS, so children get the machine's full CPU
// count while the driver pins itself to one.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return env
}

// command prepares a child that dies with the driver: Pdeathsig kills it
// even when the driver is itself killed and cannot clean up.
func command(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runProgram runs a program to completion, returning its stdout, wall time
// and peak resident set. A non-zero exit is an error that carries the
// stderr tail.
func runProgram(bin string, args ...string) (stdout []byte, wall time.Duration, peakMiB float64, err error) {
	cmd := command(bin, args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	// VmHWM only grows, so the last reading before the exit is the peak,
	// short of what the final few milliseconds add.
	done := make(chan struct{})
	peak := make(chan float64, 1)
	go func() {
		p := 0.0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, ok := readPeakRSS(cmd.Process.Pid); ok {
				p = max(p, v)
			}
			select {
			case <-done:
				peak <- p
				return
			case <-tick.C:
			}
		}
	}()
	err = cmd.Wait()
	wall = time.Since(t0)
	close(done)
	peakMiB = <-peak
	if err != nil {
		return nil, wall, peakMiB, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLines(errb.String(), 5))
	}
	return out.Bytes(), wall, peakMiB, nil
}

// readPeakRSS reads a live process's peak resident set in MiB.
func readPeakRSS(pid int) (float64, bool) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	return peakRSSMiB(status)
}

// daemon is one failscoped child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	ready  time.Duration // exec → first 200 from /healthz
	logs   chan string   // stderr tail, delivered once stderr closes
	exited bool
}

// startDaemon execs failscoped on an ephemeral port and waits until
// /healthz answers 200. The daemon prints its bound address on stderr once
// recovery (if any) is done and the listener is open.
func startDaemon(bin string, client *http.Client, args ...string) (*daemon, error) {
	cmd := command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start failscoped: %w", err)
	}
	d := &daemon{cmd: cmd, logs: make(chan string, 1)}
	addr := make(chan string, 1)
	go func() {
		// Drains stderr until the child exits, so it never blocks on a full
		// pipe; the tail is kept for error messages.
		var tail []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok {
				select {
				case addr <- strings.TrimSuffix(rest, "/"):
				default:
				}
			}
			if tail = append(tail, line); len(tail) > 20 {
				tail = tail[1:]
			}
		}
		close(addr)
		d.logs <- strings.Join(tail, "\n")
	}()

	fail := func(err error) (*daemon, error) {
		logs, _ := d.kill()
		return nil, fmt.Errorf("%w: %s", err, lastLines(logs, 5))
	}
	select {
	case a, ok := <-addr:
		if !ok {
			return fail(fmt.Errorf("failscoped exited before serving"))
		}
		d.base = "http://" + a
	case <-time.After(2 * time.Minute):
		return fail(fmt.Errorf("failscoped did not start serving within 2m"))
	}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		if time.Since(t0) > 2*time.Minute {
			return fail(fmt.Errorf("failscoped /healthz not ready within 2m: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the daemon and waits for it, returning its stderr tail
// and the peak resident set it reached. Safe to call twice.
func (d *daemon) kill() (logs string, peakMiB float64) {
	if d.exited {
		return "", 0
	}
	d.exited = true
	peakMiB, _ = readPeakRSS(d.cmd.Process.Pid)
	d.cmd.Process.Kill()
	logs = <-d.logs // stderr closes when the process is gone
	d.cmd.Wait()    // the kill makes the exit status "signal: killed"
	return logs, peakMiB
}

// httpClient is one connection's worth of client: a workload holds at most
// two, one for ingest and one for reads.
func httpClient() *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// get reads one endpoint; a non-200 status is an error.
func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// post sends one JSONL batch and returns how many events the daemon
// reports applied.
func post(c *http.Client, url string, body []byte) (int, error) {
	resp, err := c.Post(url, "application/jsonl", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, fmt.Errorf("POST %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST %s: %s: %s", url, resp.Status, lastLines(string(raw), 1))
	}
	var out struct {
		Applied int `json:"applied"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return 0, fmt.Errorf("POST %s: %w", url, err)
	}
	return out.Applied, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
