package serve

import (
	"testing"

	"objinline/internal/bench"
)

// TestRunSmall drives a miniature load run end to end and checks the
// service-level invariants the figure reports: all requests served, warm
// responses byte-identical to cold, full warm hit rate, nothing shed.
// Each phase runs the figure's default 200 requests: with only a dozen
// samples, P95 and P99 are both the single slowest request, and one
// scheduler stall decides the latency-agreement check.
func TestRunSmall(t *testing.T) {
	res, err := Run(Options{
		Scale:       bench.ScaleSmall,
		Concurrency: 4,
		Requests:    200,
		Programs:    []string{"oopack"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cold.Errors != 0 || res.Warm.Errors != 0 {
		t.Errorf("errors: cold %d warm %d", res.Cold.Errors, res.Warm.Errors)
	}
	if res.Shed != 0 {
		t.Errorf("shed %d requests below the queue limit", res.Shed)
	}
	if !res.Identical {
		t.Error("warm responses were not byte-identical to cold")
	}
	if res.HitRate != 1 {
		t.Errorf("warm hit rate %.2f, want 1.0", res.HitRate)
	}
	if res.Warm.Throughput <= res.Cold.Throughput {
		t.Errorf("warm throughput %.1f not above cold %.1f", res.Warm.Throughput, res.Cold.Throughput)
	}
	if res.ColdServer.P50 == 0 || res.WarmServer.P50 == 0 {
		t.Errorf("server-side quantiles missing: cold %+v warm %+v", res.ColdServer, res.WarmServer)
	}
	if !res.LatencyAgree {
		t.Errorf("server and client latency views disagree: cold client %+v server %+v, warm client %+v server %+v",
			res.Cold, res.ColdServer, res.Warm, res.WarmServer)
	}
}
