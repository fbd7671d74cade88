package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// client is the harness's HTTP client: keep-alive connections, at most
// nproc per node.
type client struct{ hc *http.Client }

func newClient() *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: nproc(),
		MaxConnsPerHost:     nproc(),
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 200 response; any
// other status is an error carrying the body.
func (c *client) do(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (c *client) get(url string) ([]byte, error) { return c.do(http.MethodGet, url, nil) }

func (c *client) post(url string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return c.do(http.MethodPost, url, body)
}

// simulateReq is the /v1/simulate request for a spec.
type simulateReq struct {
	Spec
	Size string `json:"size"`
}

func (c *client) simulate(base string, sp Spec) ([]byte, error) {
	return c.post(base+"/v1/simulate", simulateReq{Spec: sp, Size: "test"})
}

// batch sends an explicit-spec /v1/batch and splits the NDJSON lines.
func (c *client) batch(base string, specs []Spec) ([][]byte, error) {
	body, err := c.post(base+"/v1/batch", map[string]any{"size": "test", "specs": specs})
	if err != nil {
		return nil, err
	}
	lines := bytes.SplitAfter(body, []byte("\n"))
	if n := len(lines); n > 0 && len(lines[n-1]) == 0 {
		lines = lines[:n-1]
	}
	if len(lines) != len(specs) {
		return nil, fmt.Errorf("batch of %d specs returned %d lines", len(specs), len(lines))
	}
	return lines, nil
}

// engineJobs reads /v1/stats and returns each job kind's run count and
// total run time in ms.
func (c *client) engineJobs(base string) (map[string]jobTotal, []byte, error) {
	body, err := c.get(base + "/v1/stats?scope=local")
	if err != nil {
		return nil, nil, err
	}
	var s struct {
		Engine struct {
			Latency map[string]jobTotal `json:"latency"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, nil, fmt.Errorf("stats: %w", err)
	}
	return s.Engine.Latency, body, nil
}

type jobTotal struct {
	Count   uint64  `json:"count"`
	TotalMS float64 `json:"total_ms"`
}
