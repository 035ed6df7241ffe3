package service

import "strconv"

// BatchKey fingerprints everything that determines a partition result:
// the operation, the tenant, the resolved model cache keys in device
// order, the algorithm, and the problem size. Requests agreeing on all of
// these are answered by a single solver call. The tenant is the one
// free-form field, so it is written with its length in front: a tenant
// holding "|" and a model key can then never pass for another tenant with
// one more device. It is exported so the perf harness (internal/bench)
// can track its cost.
func BatchKey(op, tenant string, keys []ModelKey, algorithm string, D int, commTag string) string {
	b := make([]byte, 0, 64+len(op)+len(tenant)+len(algorithm)+len(commTag)+96*len(keys))
	b = append(b, op...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(tenant)), 10)
	b = append(b, ':')
	b = append(b, tenant...)
	for _, k := range keys {
		b = append(b, '|')
		b = k.appendTo(b)
	}
	b = append(b, '|')
	b = append(b, algorithm...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(D), 10)
	// Comm-aware and compute-only requests over the same models solve
	// different balance problems and must never share a batch.
	b = append(b, '|')
	b = append(b, commTag...)
	return string(b)
}

// batched coalesces identical expensive operations into a single run
// (the serving-layer analogue of request batching in an inference stack:
// identical work in flight is computed once). The first request for a key
// leads its batch and runs at once; an identical request that arrives
// before the run returns joins the batch and shares its outcome, a
// panicking run's as its error. The key is freed before the outcome is
// published, so a request that arrives after the run starts a fresh one.
func (s *Server) batched(key string, run func() (any, error)) (any, error) {
	c, joined := s.batches.Join(key)
	if joined {
		s.stats.BatchJoined.Add(1)
		return c.Wait(s.ctx)
	}
	return s.batches.Run(key, c, run)
}
