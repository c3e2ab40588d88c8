package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestFlightSnapshotClosedAndOrdered fills a shard past capacity and
// checks the snapshot is the causally closed newest window in span order.
func TestFlightSnapshotClosedAndOrdered(t *testing.T) {
	f := NewFlight(Meta{Engine: "test", Unit: "ns"}, 1, 4)
	// One chain of six events on one shard: spans 1..6, each parented on
	// the previous. Capacity 4 retains spans 3..6, but span 3's parent
	// (2) was overwritten, so the whole retained chain is orphaned and
	// closure drops all four.
	for i := 1; i <= 6; i++ {
		f.Record(Event{T: int64(i), Span: uint64(i), Parent: uint64(i - 1), Kind: KindBalancer, P: 0})
	}
	events, orphans := f.Snapshot()
	if len(events) != 0 || orphans != 4 {
		t.Fatalf("broken-chain snapshot kept %d events (%d orphans), want 0 (4)", len(events), orphans)
	}

	// Fresh roots inside the window survive.
	f2 := NewFlight(Meta{}, 2, 4)
	f2.Record(Event{T: 1, Span: 1, Kind: KindEnter, P: 0})
	f2.Record(Event{T: 3, Span: 3, Parent: 1, Kind: KindExit, P: 0})
	f2.Record(Event{T: 2, Span: 2, Kind: KindEnter, P: 1})
	events, orphans = f2.Snapshot()
	if orphans != 0 || len(events) != 3 {
		t.Fatalf("snapshot = %v (%d orphans), want 3 events", events, orphans)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Span < events[i-1].Span {
			t.Fatalf("snapshot not in span order: %v", events)
		}
	}
}

// TestFlightDumpReadsBack round-trips a dump through ReadJSONL and checks
// the reason lands in the meta header.
func TestFlightDumpReadsBack(t *testing.T) {
	f := NewFlight(Meta{Engine: "msgnet", Unit: "ns", Net: "bitonic", Width: 4}, 2, 16)
	f.Record(Event{T: 1, Span: 1, Kind: KindEnter, P: 0, Tok: 0, Node: -1, Value: -1})
	f.Record(Event{T: 2, Dur: 1, Span: 2, Parent: 1, Kind: KindBalancer, P: 0, Tok: 0, Node: 3, Value: -1})
	var buf bytes.Buffer
	if err := f.Dump(&buf, "lincheck-violation"); err != nil {
		t.Fatal(err)
	}
	meta, events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Reason != "lincheck-violation" || meta.Engine != "msgnet" {
		t.Fatalf("dump meta = %+v", meta)
	}
	if len(events) != 2 || events[1].Parent != 1 || events[1].Span != 2 {
		t.Fatalf("dump events = %+v", events)
	}
}

// TestFlightTripOnce checks the black-box contract: first Trip dumps to
// the armed path, later trips are no-ops, unarmed recorders never write.
func TestFlightTripOnce(t *testing.T) {
	f := NewFlight(Meta{Engine: "test", Unit: "ns"}, 1, 8)
	f.Record(Event{T: 1, Span: 1, Kind: KindEnter})
	if path, err := f.Trip("liveness-valve"); err != nil || path != "" {
		t.Fatalf("unarmed Trip = (%q, %v), want no-op", path, err)
	}
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	f.SetAutoDump(path)
	got, err := f.Trip("liveness-valve")
	if err != nil || got != path {
		t.Fatalf("armed Trip = (%q, %v), want %q", got, err, path)
	}
	if f.Tripped() != "liveness-valve" {
		t.Fatalf("Tripped = %q", f.Tripped())
	}
	if got, err := f.Trip("panic"); err != nil || got != "" {
		t.Fatalf("second Trip = (%q, %v), want no-op", got, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"liveness-valve"`) {
		t.Fatalf("dump missing reason: %s", data)
	}
}

// TestFlightRecoverDump checks the panic hook dumps and re-panics.
func TestFlightRecoverDump(t *testing.T) {
	f := NewFlight(Meta{Engine: "test", Unit: "ns"}, 1, 8)
	path := filepath.Join(t.TempDir(), "crash.jsonl")
	f.SetAutoDump(path)
	f.Record(Event{T: 1, Span: 1, Kind: KindEnter})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("RecoverDump swallowed the panic")
			}
		}()
		defer f.RecoverDump()
		panic("boom")
	}()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason":"panic"`) {
		t.Fatalf("crash dump missing reason: %s", data)
	}
}

// TestFlightSnapshotDuringRecording snapshots while writers are live —
// the property a black box needs. Run under -race.
func TestFlightSnapshotDuringRecording(t *testing.T) {
	const procs = 4
	f := NewFlight(Meta{}, procs, 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			// Each writer wraps its shard at least twice before it starts
			// honoring stop, so the final snapshot is guaranteed full even
			// if the snapshotting goroutine finishes first.
			for i := 0; ; i++ {
				if i >= 200 {
					select {
					case <-stop:
						return
					default:
					}
				}
				f.Record(Event{T: int64(i), P: int32(p), Kind: KindBalancer})
			}
		}(p)
	}
	for i := 0; i < 50; i++ {
		f.Snapshot()
	}
	close(stop)
	wg.Wait()
	if events, _ := f.Snapshot(); len(events) != procs*64 {
		t.Fatalf("final snapshot has %d events, want %d", len(events), procs*64)
	}
}
