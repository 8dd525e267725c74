package main

import (
	"io"
	"slices"
	"testing"

	"tsxhpc/internal/runner"
	"tsxhpc/internal/runopts"
)

// warmServeSections are the sections hostbench's warm-serve workload
// renders: the catalog's cheap ones, about 190 cells that simulate in a few
// seconds cold and are served from the store in under a millisecond warm.
var warmServeSections = []string{"E1", "E4", "E7", "E8", "E9", "A1", "A2", "A3", "A4", "A5", "A7"}

// BenchmarkWarmServe is reproduce's rerun path: it fills a store with the
// warm-serve sections once, then each iteration opens a fresh store on the
// same directory through runopts.Options.Setup, as a rerun does, and renders
// every section from it. An iteration fails if a cell simulates or a render
// differs from the cold fill's.
//
//	go test -run '^$' -bench WarmServe -benchmem ./cmd/reproduce
func BenchmarkWarmServe(b *testing.B) {
	var secs []experiment
	for _, ex := range catalog {
		if slices.Contains(warmServeSections, ex.alias) {
			secs = append(secs, ex)
		}
	}
	if len(secs) != len(warmServeSections) {
		b.Fatalf("the catalog holds %d of the %d warm-serve sections", len(secs), len(warmServeSections))
	}
	o := runopts.Options{Cache: b.TempDir()}
	serve := func() ([]string, runner.Stats) {
		suite, st, cleanup := o.Setup(io.Discard)
		defer cleanup()
		if st == nil {
			b.Fatal("runopts.Setup opened no store")
		}
		texts := make([]string, len(secs))
		for i, ex := range secs {
			text, err := ex.run(suite)
			if err != nil {
				b.Fatalf("%s: %v", ex.alias, err)
			}
			texts[i] = text
		}
		return texts, suite.E.Stats()
	}
	cold, cs := serve()
	if cs.Executed == 0 || cs.CacheHits != 0 {
		b.Fatalf("cold fill: %d cells simulated, %d hits; want a fresh store", cs.Executed, cs.CacheHits)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm, ws := serve()
		if ws.Executed != 0 || ws.CacheHits != cs.Executed {
			b.Fatalf("warm serve: %d cells simulated, %d hits; want 0 and %d", ws.Executed, ws.CacheHits, cs.Executed)
		}
		if !slices.Equal(warm, cold) {
			b.Fatal("a warm render differs from the cold fill's")
		}
	}
}
