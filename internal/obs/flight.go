package obs

import (
	"io"
	"os"
	"sync"
)

// Flight is a bounded-memory flight recorder: a Ring of the most recent
// causally stamped events, snapshotted while the run is still in motion
// and dumped as a causally closed JSONL slice the first time something
// goes wrong — a lincheck violation, a fault plan's liveness valve
// forcing a delivery through, or a panic.
type Flight struct {
	*Ring
	meta Meta

	mu      sync.Mutex
	auto    string // SetAutoDump destination; "" disables Trip dumps
	tripped string // reason of the first Trip, "" until then
}

// NewFlight returns a recorder with one shard per processor id in
// [0, procs) holding the last perProc events each. meta describes the run
// and is written into every dump.
func NewFlight(meta Meta, procs, perProc int) *Flight {
	return &Flight{Ring: NewRing(procs, perProc), meta: meta}
}

// Dump writes the current snapshot as JSONL, with reason recorded in the
// meta header.
func (f *Flight) Dump(w io.Writer, reason string) error {
	events, _ := f.Snapshot()
	meta := f.meta
	meta.Reason = reason
	return WriteJSONL(w, meta, events)
}

// DumpFile writes the snapshot to path (JSONL regardless of extension —
// a flight dump is an analysis artifact, not a Perfetto view).
func (f *Flight) DumpFile(path, reason string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Dump(file, reason); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// SetAutoDump arms the recorder: the first Trip after it writes the
// snapshot to path.
func (f *Flight) SetAutoDump(path string) {
	f.mu.Lock()
	f.auto = path
	f.mu.Unlock()
}

// Trip fires the recorder once: the first call dumps the snapshot to the
// SetAutoDump path under the given reason and returns the path; later
// calls (and calls on an unarmed recorder) are no-ops returning "". This
// is the hook engines call on a liveness-valve trip and drivers call on
// violation, so a long chaos run leaves exactly one black-box artifact.
func (f *Flight) Trip(reason string) (string, error) {
	f.mu.Lock()
	if f.tripped != "" || f.auto == "" {
		f.mu.Unlock()
		return "", nil
	}
	f.tripped = reason
	path := f.auto
	f.mu.Unlock()
	return path, f.DumpFile(path, reason)
}

// Tripped returns the reason of the first Trip, or "" if the recorder has
// not fired.
func (f *Flight) Tripped() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tripped
}

// RecoverDump is the panic hook: deferred at the top of a driver, it
// dumps the flight window (reason "panic") to the auto-dump path before
// re-panicking, so a crash leaves the same artifact a violation would.
func (f *Flight) RecoverDump() {
	if r := recover(); r != nil {
		f.Trip("panic")
		panic(r)
	}
}

// Interface compliance.
var _ Tracer = (*Flight)(nil)
