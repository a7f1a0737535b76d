package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Corpus options shared by the server and the in-process replica. The
// server gets them as explicit flags on top of its shipping defaults.
const (
	corpusContents = 1000
	corpusUsers    = 20
	// clients is the number of closed-loop client goroutines, and of
	// HTTP connections, of the live workloads.
	clients = 2
	// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
	// (100 on every Linux architecture Go supports).
	clockTicks = 100
)

// server is one live cmd/lodify process.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

func serverFlags(seed int64) []string {
	return []string{
		"-contents", strconv.Itoa(corpusContents),
		"-users", strconv.Itoa(corpusUsers),
		"-seed", strconv.FormatInt(seed, 10),
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches a fresh server on a free port and waits for the
// first 200 from /api/stats. It returns the time from process start to
// that answer.
func (r *run) startServer(c *http.Client) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr}, serverFlags(r.seed)...)
	r.serverFlags = args
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(r.outDir, "server.log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(r.serverBin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills the server if this process dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }()
	go func() {
		select {
		case <-r.stop:
			s.kill()
		case <-s.done:
		}
	}()
	deadline := start.Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited during start-up (see %s)", filepath.Join(r.outDir, "server.log"))
		default:
		}
		if resp, err := c.Get(s.base + "/api/stats"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("server did not answer /api/stats within 60s")
}

// kill stops the server and waits until it has been reaped.
func (s *server) kill() {
	if s == nil {
		return
	}
	s.cmd.Process.Kill()
	<-s.done
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// get fetches base+path and returns the body of a 200 answer.
func get(c *http.Client, u string) ([]byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %.200s", u, resp.StatusCode, body)
	}
	return body, nil
}

// sparqlSelect runs a SELECT on the server's /sparql endpoint and
// returns its bindings as value maps.
func sparqlSelect(c *http.Client, base, query string) ([]map[string]string, error) {
	body, err := get(c, base+"/sparql?query="+url.QueryEscape(query))
	if err != nil {
		return nil, err
	}
	return parseBindings(body)
}

func parseBindings(body []byte) ([]map[string]string, error) {
	var doc struct {
		Results struct {
			Bindings []map[string]struct {
				Value string `json:"value"`
			} `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("bad SPARQL JSON: %v", err)
	}
	out := make([]map[string]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		row := map[string]string{}
		for k, v := range b {
			row[k] = v.Value
		}
		out[i] = row
	}
	return out, nil
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

// parseProcStat reads utime and stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) may contain spaces
// and parentheses, so fields are counted after its last ')'.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	// f[0] is field 3 (state), so field n is f[n-3].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// memStats is the part of the server's /debug/vars memstats it uses.
type memStats struct {
	Mallocs    uint64
	TotalAlloc uint64
}

func serverMemStats(c *http.Client, base string) (memStats, error) {
	body, err := get(c, base+"/debug/vars")
	if err != nil {
		return memStats{}, err
	}
	var doc struct {
		MemStats memStats `json:"memstats"`
	}
	err = json.Unmarshal(body, &doc)
	return doc.MemStats, err
}

// procSample brackets a live run for the proc.* metrics.
type procSample struct {
	cpu time.Duration
	mem memStats
}

func sampleProc(c *http.Client, s *server) (procSample, error) {
	cpu, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		return procSample{}, err
	}
	mem, err := serverMemStats(c, s.base)
	return procSample{cpu, mem}, err
}

// procCost sums the servers' cost over their measured phases. The
// server's GC CPU share is not among them: /debug/vars only has
// MemStats.GCCPUFraction, which is cumulative from process start, so
// proc.gc_cpu_fraction comes from the in-process replay instead.
type procCost struct {
	cpu            time.Duration
	mallocs, bytes uint64
	ops            int
}

func (p *procCost) add(a, b procSample, ops int) {
	p.cpu += b.cpu - a.cpu
	p.mallocs += b.mem.Mallocs - a.mem.Mallocs
	p.bytes += b.mem.TotalAlloc - a.mem.TotalAlloc
	p.ops += ops
}

// set records the servers' cost per operation.
func (p *procCost) set(r *run) {
	n := float64(p.ops)
	r.set("proc.cpu_ms_per_op", ratio(ms(p.cpu), n))
	r.set("proc.allocs_per_op", ratio(float64(p.mallocs), n))
	r.set("proc.bytes_per_op", ratio(float64(p.bytes), n))
}

// matviewFoldRatio reads the live server's /debug/matviews and returns
// deltaApplies ÷ (deltaApplies + fullReevals) over all views.
func matviewFoldRatio(c *http.Client, base string) (float64, error) {
	body, err := get(c, base+"/debug/matviews")
	if err != nil {
		return 0, err
	}
	var doc struct {
		Matviews []struct {
			DeltaApplies int64 `json:"deltaApplies"`
			FullReevals  int64 `json:"fullReevals"`
		} `json:"matviews"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return 0, err
	}
	var d, f int64
	for _, v := range doc.Matviews {
		d += v.DeltaApplies
		f += v.FullReevals
	}
	return ratio(float64(d), float64(d+f)), nil
}
