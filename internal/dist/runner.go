package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"finser/internal/breaker"
	"finser/internal/retry"
)

// Runner computes shards for a Coordinator: a worker serd reached over
// HTTP (HTTPRunner), or the serving process itself.
type Runner interface {
	// Name identifies the runner in shard events and metric names.
	Name() string
	// RunShard computes one shard and returns its validated result. An
	// error marked retry.Permanent fails the shard at once; an error
	// wrapping breaker.ErrOpen means the runner shed the shard without
	// running it; any other error retries the shard, on another runner
	// when there is one.
	RunShard(ctx context.Context, req *ShardRequest) (*ShardResult, error)
	// Ready reports whether the runner accepts shards now (nil = ready).
	Ready() error
}

// HTTPConfig configures the runners NewHTTPRunners builds.
type HTTPConfig struct {
	// Client issues the shard requests; nil selects a default client.
	// Per-attempt deadlines come from Timeout, not the client.
	Client *http.Client
	// Timeout bounds one shard attempt end to end; 0 selects 10m.
	Timeout time.Duration
	// Breaker is the per-worker circuit breaker template. Countable nil
	// selects a default in which attempt timeouts DO count (a hung worker
	// indicts the worker) and only parent-context cancellation does not.
	Breaker breaker.Config
}

// HTTPRunner sends shards to one worker serd's POST /shards, behind that
// worker's own circuit breaker, so one flapping worker cannot shed the
// whole pool.
type HTTPRunner struct {
	url     string
	name    string
	client  *http.Client
	timeout time.Duration
	br      *breaker.Breaker
}

// NewHTTPRunners builds one runner per worker base URL. URLs are
// normalized (scheme required, trailing slash stripped), and each worker
// may be listed once.
func NewHTTPRunners(urls []string, cfg HTTPConfig) ([]Runner, error) {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 10 * time.Minute
	}
	if cfg.Timeout < 0 {
		return nil, errors.New("dist: shard timeout must be positive")
	}
	if cfg.Breaker.FailureThreshold == 0 {
		cfg.Breaker.FailureThreshold = 3
	}
	if cfg.Breaker.Cooldown == 0 {
		cfg.Breaker.Cooldown = 5 * time.Second
	}
	if cfg.Breaker.Countable == nil {
		// An attempt timeout is the worker's fault here, unlike the
		// library default; only parent-context cancellation is ours.
		cfg.Breaker.Countable = func(err error) bool {
			return !errors.Is(err, context.Canceled)
		}
	}
	runners := make([]Runner, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("dist: worker URL %q must be absolute (http://host:port)", raw)
		}
		if seen[u.Host] {
			return nil, fmt.Errorf("dist: duplicate worker %q", u.Host)
		}
		seen[u.Host] = true
		bcfg := cfg.Breaker
		bcfg.Name = "dist/" + u.Host
		runners = append(runners, &HTTPRunner{
			url:     strings.TrimRight(u.String(), "/"),
			name:    u.Host,
			client:  cfg.Client,
			timeout: cfg.Timeout,
			br:      breaker.New(bcfg),
		})
	}
	return runners, nil
}

// Name is the worker's host:port.
func (r *HTTPRunner) Name() string { return r.name }

// Ready is nil unless the worker's breaker is open.
func (r *HTTPRunner) Ready() error {
	if r.br.State() == breaker.Open {
		return fmt.Errorf("dist: worker %s unavailable (circuit breaker open)", r.name)
	}
	return nil
}

// maxShardResponse caps a worker response body; a shard of maxShardBins
// points is far below this.
const maxShardResponse = 16 << 20

// RunShard runs one shard attempt against the worker through its breaker.
// 4xx responses are permanent (the request itself is bad everywhere);
// everything else — connection failures, timeouts, 5xx, invalid payloads —
// is transient and worth a different worker.
func (r *HTTPRunner) RunShard(ctx context.Context, sr *ShardRequest) (*ShardResult, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, retry.Permanent(fmt.Errorf("dist: encode %v: %w", sr.Shard, err))
	}
	ctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	var res *ShardResult
	err = r.br.Do(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url+"/shards", bytes.NewReader(body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := r.client.Do(req)
		if err != nil {
			return fmt.Errorf("dist: %v on %s: %w", sr.Shard, r.name, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
		if err != nil {
			return fmt.Errorf("dist: %v on %s: read response: %w", sr.Shard, r.name, err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			// A corrupt success payload is the worker's fault: countable
			// for its breaker, transient for the shard.
			res, err = DecodeShardResult(data, sr)
			if err != nil {
				return fmt.Errorf("dist: %v on %s: %w", sr.Shard, r.name, err)
			}
			return nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return retry.Permanent(fmt.Errorf("dist: %v on %s: HTTP %d: %s",
				sr.Shard, r.name, resp.StatusCode, truncate(data, 200)))
		default:
			return fmt.Errorf("dist: %v on %s: HTTP %d: %s",
				sr.Shard, r.name, resp.StatusCode, truncate(data, 200))
		}
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
