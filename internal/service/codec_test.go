package service

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

func codecRequest() PartitionRequest {
	return PartitionRequest{
		Tenant: "tenant-a",
		Devices: []DeviceSpec{
			{Preset: "netlib-blas", Seed: 1, Noise: 0.02},
			{Preset: "fast", Seed: 2, Noise: 0},
		},
		Grid:      Grid{Lo: 16, Hi: 5000, N: 20},
		Model:     "piecewise",
		Algorithm: "geometric",
		D:         10000,
	}
}

// TestCodecConcurrent round-trips from many goroutines at once (tier 2
// runs this under -race): concurrent requests never see each other's
// bytes.
func TestCodecConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			req := codecRequest()
			req.D = 1000 + worker // distinct payload per goroutine
			for i := 0; i < 200; i++ {
				var buf bytes.Buffer
				if err := EncodeJSON(&buf, req); err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				var back PartitionRequest
				if err := DecodeJSON(&buf, &back); err != nil {
					t.Errorf("worker %d: %v", worker, err)
					return
				}
				if !reflect.DeepEqual(back, req) {
					t.Errorf("worker %d: round trip changed the request: %+v != %+v", worker, back, req)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
