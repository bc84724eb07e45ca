package main

import (
	"context"
	"net/http"
	"sync"
	"time"

	"heteronoc/internal/serve"
)

// tenantClient returns a serve.Client that holds at most one connection to
// the server, so one load goroutine per tenant means one connection per
// tenant. Retries follow the client's defaults; every attempt of a request
// counts toward its round trip.
func tenantClient(baseURL string, seed int64) *serve.Client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		IdleConnTimeout:     time.Minute,
	}
	return &serve.Client{BaseURL: baseURL, HTTP: &http.Client{Transport: tr}, Seed: seed}
}

// closedLoop runs one goroutine per tenant. Each sends its next request
// only after the previous one has completed, and sends none after until;
// a request in flight at that moment still completes. An error from a
// tenant stops every tenant (it is fatal to the run, not a failed request,
// which tenants count themselves); closedLoop returns the first such error
// once every goroutine has exited.
func closedLoop(ctx context.Context, until time.Time, tenants []func(ctx context.Context) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for _, next := range tenants {
		next := next
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(until) {
				if err := next(ctx); err != nil {
					once.Do(func() { first = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
