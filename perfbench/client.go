package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"uniask/internal/sse"
)

// requestTimeout bounds one request, so a wedged server fails the run
// instead of hanging it.
const requestTimeout = 30 * time.Second

// client speaks the server's REST and SSE API over loopback HTTP.
type client struct {
	base  string
	token string
	hc    *http.Client
}

func newClient(ctx context.Context, base string) (*client, error) {
	c := &client{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
	}
	var out struct {
		Token string `json:"token"`
	}
	status, body, err := c.post(ctx, "/api/login", `{"user":"perfbench"}`)
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &out)
	}
	if err != nil || out.Token == "" {
		return nil, fmt.Errorf("login: status %d: %v", status, err)
	}
	c.token = out.Token
	return c, nil
}

func (c *client) request(ctx context.Context, path, body string) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader([]byte(body)))
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func (c *client) post(ctx context.Context, path, body string) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := c.request(ctx, path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func questionBody(q string) string {
	b, _ := json.Marshal(map[string]string{"question": q}) // a map of strings always marshals
	return string(b)
}

// ask sends one one-shot ask and checks its output. The latency runs from
// sending the request to reading the whole response body.
func (c *client) ask(ctx context.Context, q string) (time.Duration, askReply, error) {
	start := time.Now()
	status, body, err := c.post(ctx, "/api/ask", questionBody(q))
	lat := time.Since(start)
	if err != nil {
		return lat, askReply{}, fmt.Errorf("ask: %w", err)
	}
	r, err := checkAsk(status, body)
	return lat, r, err
}

// newSession opens a conversation and returns its ID.
func (c *client) newSession(ctx context.Context) (string, error) {
	status, body, err := c.post(ctx, "/api/sessions", "{}")
	if err != nil {
		return "", fmt.Errorf("session: %w", err)
	}
	var out struct {
		ID string `json:"id"`
	}
	if status != http.StatusCreated || json.Unmarshal(body, &out) != nil || out.ID == "" {
		return "", fmt.Errorf("session: status %d", status)
	}
	return out.ID, nil
}

// turn streams one session turn and checks it. ttfc runs from sending the
// request to parsing the citations event; total to the done event.
func (c *client) turn(ctx context.Context, sid, q string) (ttfc, total time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := c.request(ctx, "/api/sessions/"+sid+"/ask", questionBody(q))
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, fmt.Errorf("turn: %w", err)
	}
	defer resp.Body.Close()
	var (
		p      sse.Parser
		events []sse.Event
		buf    = make([]byte, 8192)
	)
	for resp.StatusCode == http.StatusOK {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			evs, perr := p.Feed(buf[:n])
			if perr != nil {
				return 0, 0, fmt.Errorf("turn: %w", perr)
			}
			for _, ev := range evs {
				if ev.Name == "citations" && ttfc == 0 {
					ttfc = time.Since(start)
				}
			}
			events = append(events, evs...)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("turn: %w", rerr)
		}
	}
	total = time.Since(start)
	return ttfc, total, checkTurn(resp.StatusCode, events)
}
