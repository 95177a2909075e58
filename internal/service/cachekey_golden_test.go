package service

import "testing"

// goldenKeys pins literal CacheKey values. A refactor that changes any of
// them silently invalidates every persisted cache entry and manifest
// replay, so a change here must be a deliberate, recorded format change.
var goldenKeys = []struct {
	req  Request
	want uint64
}{
	{Request{Kind: "run", Workload: "vecadd", N: 1024, Device: "tiny", Seed: 1}, 0x09fb5817ebdce1e6},
	{Request{Kind: "run", Workload: "reduce", N: 4096, Seed: 7, FaultRate: 0.1, FaultSeed: 3}, 0x9dbac4690a7aa8d6},
	{Request{Kind: "run", Workload: "matmul", N: 64, Device: "tiny", Trace: true, Metrics: true}, 0xe5738bebf0cb1ecb},
	{Request{Kind: "sweep", Workload: "vecadd"}, 0x751c8b51b36eae10},
	{Request{Kind: "sweep", Workload: "reduce", Sizes: []int{1 << 10, 1 << 12}, Device: "gtx1080"}, 0xd39915f94307d78d},
	{Request{Kind: "sweep", Workload: "matmul", Scheme: "pinned", SyncCostUs: -1}, 0x063e6a699f2716b2},
	{Request{Kind: "pipeline", Workload: "vecadd", Sizes: []int{4096}, Chunks: 2}, 0x7e4a7a99c7ccd1af},
	{Request{Kind: "pipeline", Workload: "reduce"}, 0x2d9dafca6f257f9a},
	{Request{Kind: "pipeline", Workload: "matmul", Sizes: []int{64, 128}, Device: "k40", Chunks: 3}, 0xf7a93c5db181e6bc},
	{Request{Kind: "analyze", Workload: "vecadd", N: 1_000_000}, 0xfa84f04f1b2d9610},
	{Request{Kind: "analyze", Workload: "reduce", N: 1 << 20, Device: "tiny"}, 0x653ec9fca2466479},
	{Request{Kind: "analyze", Workload: "matmul", N: 256, MaxRetries: 2, WatchdogUs: 900}, 0x6bdd42e117f53d32},
	{Request{Kind: "lint", Workload: "scan", N: 4096}, 0x42cfc23d9877ab6c},
	{Request{Kind: "lint", Workload: "scan", N: 64, Device: "tiny"}, 0x262fddda622b7dd5},
}

func TestCacheKeyGolden(t *testing.T) {
	for i, g := range goldenKeys {
		req, err := g.req.Normalize()
		if err != nil {
			t.Fatalf("case %d (%s %s): normalize: %v", i, g.req.Kind, g.req.Workload, err)
		}
		got, err := req.CacheKey()
		if err != nil {
			t.Fatalf("case %d (%s %s): %v", i, g.req.Kind, g.req.Workload, err)
		}
		if got != g.want {
			t.Errorf("case %d (%s %s): key %#016x, want %#016x", i, g.req.Kind, g.req.Workload, got, g.want)
		}
	}
}
