package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a request that exceeds it counts as
// failed.
const requestTimeout = 10 * time.Second

// client is the benchmark's HTTP client. It reads every response body to
// EOF, so the keep-alive connection goes back to the pool, and its
// transport never holds more than conns connections to the server.
// opened counts the TCP connections actually established (httptrace
// ConnectDone, which also sees dials the transport starts for one
// request and hands to another), which is how transport.conns_opened
// proves the reuse.
type client struct {
	base   string
	hc     *http.Client
	trace  *httptrace.ClientTrace
	opened atomic.Int64
}

func newClient(addr string, conns int) *client {
	c := &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		}},
	}
	c.trace = &httptrace.ClientTrace{ConnectDone: func(_, _ string, err error) {
		if err == nil {
			c.opened.Add(1)
		}
	}}
	return c
}

// do sends one request and reads the whole response body into buf. It
// returns the HTTP status; err is set only when no response arrived.
func (c *client) do(ctx context.Context, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	ctx, cancel := context.WithTimeout(httptrace.WithClientTrace(ctx, c.trace), requestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading %s body: %w", path, err)
	}
	return resp.StatusCode, nil
}

// post is do with POST; get is do with GET and no body.
func (c *client) post(ctx context.Context, path string, body []byte, buf *bytes.Buffer) (int, error) {
	return c.do(ctx, http.MethodPost, path, body, buf)
}

func (c *client) get(ctx context.Context, path string, buf *bytes.Buffer) (int, error) {
	return c.do(ctx, http.MethodGet, path, nil, buf)
}

// close drops the idle connections.
func (c *client) close() { c.hc.CloseIdleConnections() }
