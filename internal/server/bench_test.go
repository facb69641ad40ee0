package server_test

import (
	"context"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/server"
	"repro/lddp"
	"repro/lddp/api"
	"repro/lddp/client"
)

// newBenchService is newTestService without t.Cleanup: the benchmark
// closes the stack explicitly so teardown stays outside the timer.
func newBenchService(b *testing.B, cfg server.Config, opts ...client.Option) (*server.Server, *httptest.Server, *client.Client) {
	b.Helper()
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c, err := client.New(ts.URL, append([]client.Option{client.WithRetry(client.RetryPolicy{MaxAttempts: 1})}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	return srv, ts, c
}

// BenchmarkServerSolveBatch8x512 measures server-mode throughput: a batch
// of concurrent solves through the full network stack (encode, HTTP
// round trip over loopback, handler validation, scheduler, digest,
// response) versus the same batch submitted straight to the facade — the
// spread between the sub-benchmarks is the wire tax. The variants pick
// apart the tax: "wire" is the JSON codec, "wire-binary" the frame
// codec (both cold: the result cache is disabled so every iteration
// solves), and "wire-cached" replays a warmed cache over the binary
// codec, measuring the service floor with the scheduler out of the
// picture. The per-op byte rate is table cells produced, mirroring
// BenchmarkSchedulerBatch16x1024.
func BenchmarkServerSolveBatch8x512(b *testing.B) {
	const (
		batch = 8
		size  = 512
	)
	workers := runtime.GOMAXPROCS(0)

	wireVariant := func(codec []client.Option, cacheBytes int64, warm bool) func(b *testing.B) {
		return func(b *testing.B) {
			srv, ts, c := newBenchService(b, server.Config{
				Workers: workers, MaxInflight: batch,
				CacheBytes: cacheBytes,
			}, codec...)
			defer func() { c.Close(); ts.Close(); srv.Close() }()
			if warm {
				runWireBatch(b, c, batch, size)
			}
			b.SetBytes(int64(batch) * size * size * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runWireBatch(b, c, batch, size)
			}
		}
	}
	binary := []client.Option{client.WithCodec(client.CodecBinary)}
	b.Run("wire", wireVariant(nil, -1, false))
	b.Run("wire-binary", wireVariant(binary, -1, false))
	b.Run("wire-cached", wireVariant(binary, server.DefaultCacheBytes, true))

	b.Run("direct", func(b *testing.B) {
		s, err := lddp.NewScheduler(lddp.WithSchedulerWorkers(workers))
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.SetBytes(int64(batch) * size * size * 8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errs := make([]error, batch)
			for k := 0; k < batch; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					p := server.MixProblem(int64(k), lddp.DepW|lddp.DepN, size, size, 0, 0)
					sub, err := lddp.Submit(context.Background(), s, p)
					if err != nil {
						errs[k] = err
						return
					}
					_, errs[k] = sub.Wait()
				}(k)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func runWireBatch(b *testing.B, c *client.Client, batch, size int) {
	b.Helper()
	var wg sync.WaitGroup
	errs := make([]error, batch)
	for k := 0; k < batch; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = c.Solve(context.Background(), &api.SolveRequest{
				Rows: size, Cols: size, Mask: "W,N",
				Workload: api.WorkloadSpec{Kind: api.KindMix, Seed: int64(k)},
			})
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			b.Fatal(err)
		}
	}
}
