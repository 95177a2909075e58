package main

import (
	"io"
	"os"
	"testing"

	"atgpu"
	"atgpu/internal/simgpu"
)

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	stdout := os.Stdout
	os.Stdout = tmp
	ferr := f()
	os.Stdout = stdout
	if _, err := tmp.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(tmp)
	if err != nil {
		t.Fatal(err)
	}
	return string(got), ferr
}

// TestRunGolden pins the exact stdout of `atgpu run` and `run -pipeline`
// on the Tiny device, faulted and not. A diff means the inputs, the host
// wiring, the fault seeds or the pricing of a single run moved.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		name      string
		alg       string
		n         int
		pipeline  bool
		faultRate float64
		faultSeed int64
		want      string
	}{
		{"vecadd", "vecadd", 1024, false, 0, 1, `vecadd n=1024 (verified against CPU reference)
observed:  total=6.53319ms kernel=6.4ms transfer=83.19µs sync=50µs rounds=1
predicted: GPU-cost=0.00691719s SWGPU=0.006834s
ΔE (observed transfer share)  = 1.3%
ΔT (predicted transfer share) = 1.2%
kernel stats:
cycles=6400 instrs=5888 laneOps=23552
global: accesses=768 transactions=768 uncoalesced=0
shared: accesses=1536 conflicts=0 maxDegree=0
control: barriers=0 divergent=0
sched: stall=6912 idle=0 blocks=256 maxResident=2 occLimit=2 maxWarpInstrs=23
`},
		{"reduce", "reduce", 1024, false, 0, 1, `reduce n=1024 (verified against CPU reference)
observed:  total=9.907732ms kernel=9.605ms transfer=52.732µs sync=250µs rounds=5
predicted: GPU-cost=0.00955773s SWGPU=0.009505s
ΔE (observed transfer share)  = 0.5%
ΔT (predicted transfer share) = 0.6%
kernel stats:
cycles=9605 instrs=12958 laneOps=37510
global: accesses=682 transactions=682 uncoalesced=0
shared: accesses=3069 conflicts=0 maxDegree=0
control: barriers=1023 divergent=1023
sched: stall=6167 idle=49 blocks=341 maxResident=2 occLimit=2 maxWarpInstrs=38
`},
		{"matmul", "matmul", 16, false, 0, 1, `matmul n=16 (verified against CPU reference)
observed:  total=17.095046ms kernel=16.968ms transfer=77.046µs sync=50µs rounds=1
predicted: GPU-cost=0.015615s SWGPU=0.015538s
ΔE (observed transfer share)  = 0.5%
ΔT (predicted transfer share) = 0.5%
kernel stats:
cycles=16968 instrs=19792 laneOps=79168
global: accesses=576 transactions=576 uncoalesced=0
shared: accesses=3200 conflicts=0 maxDegree=0
control: barriers=144 divergent=0
sched: stall=14144 idle=0 blocks=16 maxResident=1 occLimit=1 maxWarpInstrs=1237
`},
		{"vecadd-pipeline", "vecadd", 1024, true, 0, 1, `vecadd n=1024 pipelined (chunks=4, streams=2, verified against CPU reference)
sequential schedule: total=6.758184ms kernel=6.4ms transfer=308.184µs sync=50µs
pipelined schedule:  total=6.527046ms kernel=6.4ms transfer=308.184µs sync=50µs
observed saving:  231.138µs (3.4%)
predicted: sequential=0.00714219s pipelined=0.00691105s saving=0.000231144s (3.2%)
`},
		{"reduce-pipeline", "reduce", 1024, true, 0, 1, `reduce n=1024 pipelined (chunks=4, streams=2, verified against CPU reference)
sequential schedule: total=10.000736ms kernel=9.748ms transfer=202.736µs sync=50µs
pipelined schedule:  total=9.848684ms kernel=9.748ms transfer=202.736µs sync=50µs
observed saving:  152.052µs (1.5%)
predicted: sequential=0.00962474s pipelined=0.00947269s saving=0.000152056s (1.6%)
`},
		{"matmul-pipeline", "matmul", 16, true, 0, 1, `matmul n=16 pipelined (chunks=4, streams=2, verified against CPU reference)
sequential schedule: total=17.245042ms kernel=16.968ms transfer=227.042µs sync=50µs
pipelined schedule:  total=17.094022ms kernel=16.968ms transfer=227.042µs sync=50µs
observed saving:  151.02µs (0.9%)
predicted: sequential=0.015765s pipelined=0.015614s saving=0.000151024s (1.0%)
`},
		{"reduce-faults", "reduce", 1024, false, 0.2, 11, `reduce n=1024 (verified against CPU reference)
observed:  total=10.546275ms kernel=10.165ms transfer=131.275µs sync=250µs rounds=5
predicted: GPU-cost=0.00955773s SWGPU=0.009505s
ΔE (observed transfer share)  = 1.2%
ΔT (predicted transfer share) = 0.6%
kernel stats:
cycles=10165 instrs=12958 laneOps=37510
global: accesses=682 transactions=682 uncoalesced=0
shared: accesses=3069 conflicts=0 maxDegree=0
control: barriers=1023 divergent=1023
sched: stall=6167 idle=0 blocks=341 maxResident=2 occLimit=2 maxWarpInstrs=38
resilience: 1 retries (1024 words re-sent, backoff 5.141µs), 0 corruptions, 1 drops, 1 stalls
            0 watchdog fires (0s lost), 0 relaunches, 3 degraded launches, 1 failed SMs
  fault #0 H2D attempt=0 drop (1024 words)
  fault #4 kernel attempt=0 sm-fail (SM 1 of 2)
  fault #7 D2H attempt=0 stall (1 words)
`},
		{"vecadd-pipeline-faults", "vecadd", 1024, true, 0.3, 2, `vecadd n=1024 pipelined (chunks=4, streams=2, verified against CPU reference)
sequential schedule: total=6.898089ms kernel=6.4ms transfer=448.089µs sync=50µs
pipelined schedule:  total=32.927046ms kernel=32.8ms transfer=443.725µs sync=50µs
observed saving:  -26.028957ms (-377.3%)
predicted: sequential=0.00714219s pipelined=0.00691105s saving=0.000231144s (3.2%)
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := atgpu.DefaultOptions()
			opts.Device = simgpu.Tiny()
			opts.FaultRate = tc.faultRate
			opts.FaultSeed = tc.faultSeed
			cmd := run
			if tc.pipeline {
				cmd = runPipelined
			}
			got, err := captureStdout(t, func() error { return cmd(tc.alg, tc.n, opts, "", "") })
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("stdout diverged from the golden:\n--- got\n%s--- want\n%s", got, tc.want)
			}
		})
	}
}
