package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"

	"symbios/internal/obs"
)

// series maps one exposition series — name plus its label set exactly as
// written, e.g. `sosd_stage_seconds_sum{stage="cache"}` — to its value.
type series map[string]float64

// parseMetrics reads a Prometheus text exposition into a series map. The
// text is validated with the repo's own obs.ParseText first, so a scrape the
// daemons' CI check would reject is an error here too rather than a silent
// zero in some layer's budget.
func parseMetrics(text []byte) (series, error) {
	if _, err := obs.ParseText(bytes.NewReader(text)); err != nil {
		return nil, fmt.Errorf("invalid exposition: %w", err)
	}
	out := series{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// A label value may contain spaces but never '}', so the value
		// starts after the last '}' (or the first space when unlabelled).
		cut := strings.LastIndexByte(line, '}') + 1
		if cut == 0 {
			cut = strings.IndexByte(line, ' ')
		}
		if cut < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		fields := strings.Fields(line[cut:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("sample %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out, sc.Err()
}

// sub returns after-before per series. A series absent from before (lazily
// registered mid-window) counts from zero.
func (after series) sub(before series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// add accumulates other into s (used to total the two sosd replicas, and to
// total one traced pass's blocks).
func (s series) add(other series) {
	for k, v := range other {
		s[k] += v
	}
}

// family sums every series of one family regardless of labels, e.g. all
// per-backend fleet_backend_requests_total counters.
func (s series) family(name string) float64 {
	sum := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// scrapeMetrics GETs base/metrics and parses it.
func scrapeMetrics(c *http.Client, base string) (series, error) {
	body, err := httpGet(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body)
}

// httpGet fetches url and returns the body of a 200 answer.
func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// getJSON fetches url and decodes the 200 body into v.
func getJSON(c *http.Client, url string, v any) error {
	body, err := httpGet(c, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times. It is 100
// on every Linux ABI Go supports.
const clockTick = 100

// procUsage is one /proc/<pid>/stat reading.
type procUsage struct {
	cpuSec   float64 // utime+stime
	rssBytes int64
}

// parseProcStat extracts CPU time and resident size from the contents of
// /proc/<pid>/stat. The comm field (2) is parenthesised and may itself
// contain spaces and parentheses, so fields are counted from the last ')'.
func parseProcStat(stat string, pageSize int) (procUsage, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return procUsage{}, fmt.Errorf("proc stat: no comm field in %q", stat)
	}
	f := strings.Fields(stat[end+1:]) // f[0] is field 3 (state)
	const utime, stime, rss = 14 - 3, 15 - 3, 24 - 3
	if len(f) <= rss {
		return procUsage{}, fmt.Errorf("proc stat: %d fields after comm, want > %d", len(f), rss)
	}
	var vals [3]int64
	for i, idx := range []int{utime, stime, rss} {
		v, err := strconv.ParseInt(f[idx], 10, 64)
		if err != nil {
			return procUsage{}, fmt.Errorf("proc stat field %d: %w", idx+3, err)
		}
		vals[i] = v
	}
	return procUsage{
		cpuSec:   float64(vals[0]+vals[1]) / clockTick,
		rssBytes: vals[2] * int64(pageSize),
	}, nil
}

// readProcUsage reads a live process's CPU time and RSS.
func readProcUsage(pid int) (procUsage, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procUsage{}, err
	}
	return parseProcStat(string(data), os.Getpagesize())
}
