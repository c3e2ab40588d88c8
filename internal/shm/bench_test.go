package shm

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"countnet/internal/bitonic"
	"countnet/internal/dtree"
	"countnet/internal/obs"
)

func benchNetwork(b *testing.B, n *Network) {
	b.Helper()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n.Traverse(0)
		}
	})
}

func BenchmarkBitonic8(b *testing.B) {
	g, err := bitonic.New(8)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{KindAtomic, KindMutex, KindMCS} {
		n, err := Compile(g, Options{Kind: kind})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kind.String(), func(b *testing.B) { benchNetwork(b, n) })
	}
}

func BenchmarkDTree32(b *testing.B) {
	g, err := dtree.New(32)
	if err != nil {
		b.Fatal(err)
	}
	n, err := Compile(g, Options{Kind: KindMCS})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("toggle", func(b *testing.B) { benchNetwork(b, n) })
}

// BenchmarkBalancers is rung 1 of the layer ladder: one balancer of each
// toggle configuration, compiled as a one-balancer network, so every
// token also pays the output counter's fetch-and-add.
func BenchmarkBalancers(b *testing.B) {
	g, err := dtree.New(2)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"atomic", "mutex", "mcs"} {
		n, err := Compile(g, oneBalancer[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { benchNetwork(b, n) })
	}
}

// BenchmarkWalk is rung 2 of the layer ladder: one network walk on
// bitonic[32] (15 toggles and a counter fetch-and-add), untraced Traverse
// against TraverseSpan with tracing and metrics on, at a fixed goroutine
// count. Traverse and TraverseSpan rows enter worker w at inputs w,
// w+workers, ..., so two workers always share first-layer balancers, the
// pattern of a shared round-robin cursor. The mcs/home rows enter through
// Next, at each walk seat's home input instead. It reports ns/token and
// allocs/token; untraced walks allocate nothing.
func BenchmarkWalk(b *testing.B) {
	g, err := bitonic.New(32)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []Kind{KindAtomic, KindMCS} {
		for _, entry := range []walkEntry{entryTraverse, entrySpan, entryHome} {
			if entry == entryHome && kind != KindMCS {
				continue
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/%s/g%d", kind, entry, workers), func(b *testing.B) {
					n, err := Compile(g, Options{Kind: kind})
					if err != nil {
						b.Fatal(err)
					}
					if entry == entrySpan {
						n.EnableObs(obs.NewRing(workers, 1<<12), obs.NewRegistry(), nil, 0)
					}
					benchWalk(b, n, workers, entry)
				})
			}
		}
	}
}

// walkEntry is how a BenchmarkWalk row enters the network.
type walkEntry int

const (
	entryTraverse walkEntry = iota // Traverse at a rotating input
	entrySpan                      // traced TraverseSpan at a rotating input
	entryHome                      // Next, at the walk seat's home input
)

func (e walkEntry) String() string {
	return [...]string{"traverse", "span", "home"}[e]
}

// benchWalk splits b.N walks over workers goroutines and reports the
// per-token cost. The goroutines start before the allocation count is
// read, so allocs/token counts the walks alone; like the testing
// package's allocs/op it is truncated to a whole number, which keeps the
// rare sync.Pool miss of a walk seat from reading as a per-token cost.
func benchWalk(b *testing.B, n *Network, workers int, entry walkEntry) {
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := w; i < b.N; i += workers {
				switch entry {
				case entrySpan:
					n.TraverseSpan(i%n.InWidth(), int32(w), int32(i), 0, nil)
				case entryHome:
					n.Next()
				default:
					n.Traverse(i % n.InWidth())
				}
			}
		}(w)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	close(start)
	wg.Wait()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/token")
	b.ReportMetric(float64((after.Mallocs-before.Mallocs)/uint64(b.N)), "allocs/token")
}
