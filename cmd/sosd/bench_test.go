package main

import (
	"context"
	"fmt"
	"testing"

	"symbios/internal/experiments"
)

// BenchmarkRankMiss is the repository benchmark's `miss` workload in
// process: one serve-scale rank of Jsb(6,3,3) with three samples, decoded
// from the wire form, with a fresh seed per iteration so nothing repeats.
// Evaluator and kernel are all of it; no HTTP, cache, breaker or queue.
func BenchmarkRankMiss(b *testing.B) {
	eval := &evaluator{scale: experiments.ServeScale()}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := DecodeScheduleRequest([]byte(fmt.Sprintf(`{"mix":"Jsb(6,3,3)","seed":%d,"samples":3}`, i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eval.evaluate(ctx, req, 0); err != nil {
			b.Fatal(err)
		}
	}
}
