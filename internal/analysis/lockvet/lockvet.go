// Package lockvet checks the hand-rolled locking discipline of the shm
// engine: critical sections abandoned on early-return paths, and nested
// lock acquisition without a declared order. The paper's Tog
// measurements assume every balancer critical section is entered and
// left exactly once per traversal; a leaked lock stalls the whole
// network rather than one token, and an undeclared nesting is a deadlock
// waiting for the right schedule. Locks copied by value are stock
// `go vet`'s copylocks check, which covers MCS queue locks too (their
// atomic.Pointer carries noCopy).
//
// Both checks are linear source-order scans per function (no CFG):
// `X.Lock()` opens a critical section, a matching `defer X.Unlock()`
// closes it for the whole function, `X.Unlock()` closes it at that
// point, and any `return` while a section is open is flagged.
// Conditional locking patterns that confuse the scan can be annotated
// with `//countnet:allow lockvet -- <reason>`. Nested acquisitions must
// be declared with `//countnet:lockorder A < B` at package level.
package lockvet

import (
	"fmt"
	"go/ast"
	"go/types"

	"countnet/internal/analysis"
)

// Analyzer is the lockvet pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockvet",
	Doc:  "no early return with a lock held, no undeclared nested acquisition",
	Run:  run,
}

// mcsPath is the MCS queue-lock package; its Lock participates like
// sync.Mutex (Acquire/Release pair with an explicit queue node).
const mcsPath = "countnet/internal/shm/mcs"

var acquireNames = map[string]bool{"Lock": true, "RLock": true, "Acquire": true}
var releaseNames = map[string]bool{"Unlock": true, "RUnlock": true, "Release": true}

// isLockType reports whether t is one of the checked lock types.
func isLockType(t types.Type) bool {
	return analysis.IsNamed(t, "sync", "Mutex") ||
		analysis.IsNamed(t, "sync", "RWMutex") ||
		analysis.IsNamed(t, mcsPath, "Lock")
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Body != nil {
				checkSections(pass, fd)
			}
		}
	}
	return nil
}

// event is one lock-relevant point in a function, in source order.
type event struct {
	pos  ast.Node
	kind string // "acquire", "release", "defer-release", "return"
	key  string
}

// checkSections runs the linear critical-section scan over one function.
func checkSections(pass *analysis.Pass, fd *ast.FuncDecl) {
	var events []event
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // closures have their own discipline; scanning across them lies
		case *ast.ReturnStmt:
			events = append(events, event{pos: x, kind: "return"})
		case *ast.DeferStmt:
			if key, ok := lockCall(pass, x.Call, releaseNames); ok {
				events = append(events, event{pos: x, kind: "defer-release", key: key})
			}
			return false
		case *ast.CallExpr:
			if key, ok := lockCall(pass, x, acquireNames); ok {
				events = append(events, event{pos: x, kind: "acquire", key: key})
			} else if key, ok := lockCall(pass, x, releaseNames); ok {
				events = append(events, event{pos: x, kind: "release", key: key})
			}
		}
		return true
	})
	held := []string{}
	holds := func(k string) bool {
		for _, h := range held {
			if h == k {
				return true
			}
		}
		return false
	}
	drop := func(k string) {
		for i, h := range held {
			if h == k {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	for _, ev := range events {
		switch ev.kind {
		case "acquire":
			if holds(ev.key) {
				pass.Reportf(ev.pos.Pos(), "%s acquired while already held: self-deadlock", ev.key)
				continue
			}
			for _, h := range held {
				if !pass.Dirs.HasLockOrder(h, ev.key) {
					pass.Reportf(ev.pos.Pos(),
						"%s acquired while %s is held without a declared order (add `//countnet:lockorder %s < %s` if intended)",
						ev.key, h, h, ev.key)
				}
			}
			held = append(held, ev.key)
		case "release", "defer-release":
			drop(ev.key)
		case "return":
			for _, h := range held {
				pass.Reportf(ev.pos.Pos(), "return with %s held: early-return path leaks the critical section", h)
			}
		}
	}
	if len(held) > 0 && !acquireNames[fd.Name.Name] {
		for _, h := range held {
			pass.Reportf(fd.Body.Rbrace, "%s still held at function end: no release on this path", h)
		}
	}
}

// lockCall reports whether call is <lock>.<method>() for a checked lock
// type and a method in names, returning the lock's canonical key.
func lockCall(pass *analysis.Pass, call *ast.CallExpr, names map[string]bool) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !names[sel.Sel.Name] {
		return "", false
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil || !isLockType(t) {
		return "", false
	}
	return lockKey(pass, sel.X), true
}

// lockKey canonicalizes a lock expression: struct fields become
// "OwnerType.field" (stable across receiver names, matching the
// lockorder directive grammar), everything else its source text.
func lockKey(pass *analysis.Pass, e ast.Expr) string {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if s, ok := pass.TypesInfo.Selections[sel]; ok {
			if n := analysis.NamedType(s.Recv()); n != nil {
				return n.Obj().Name() + "." + sel.Sel.Name
			}
		}
	}
	return exprText(e)
}

// exprText renders a reference expression compactly.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	default:
		return fmt.Sprintf("%T", e)
	}
}
