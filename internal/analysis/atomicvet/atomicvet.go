// Package atomicvet enforces the toggle discipline behind Theorem 3.6:
// a field (or package-level variable) that is accessed through sync/atomic
// anywhere in a package is an atomic field everywhere — one plain read of
// a balancer toggle or lock word is a data race the race detector only
// catches when the schedule cooperates, and a silently stale read breaks
// the step property that all linearizability evidence builds on.
//
// Fields of the atomic.Int64-style wrapper types are safe by construction
// (the type system forbids plain access); this analyzer covers the
// function-style API, where the compiler accepts both access modes.
package atomicvet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"countnet/internal/analysis"
)

// Analyzer is the atomicvet pass.
var Analyzer = &analysis.Analyzer{
	Name: "atomicvet",
	Doc:  "a field accessed via sync/atomic must never be read or written plainly",
	Run:  run,
}

// atomicOps are the sync/atomic function-name prefixes that take the
// address of the shared word.
var atomicOps = []string{"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or"}

func isAtomicOp(name string) bool {
	for _, p := range atomicOps {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	// Pass 1: every &x passed to a sync/atomic function marks x's field
	// (or package-level var) as atomic, and the address expression itself
	// as sanctioned.
	atomicVars := map[*types.Var]token.Pos{}
	sanctioned := map[ast.Expr]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := analysis.PkgFunc(pass.TypesInfo, call, "sync/atomic")
			if !ok || !isAtomicOp(name) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				target := ast.Unparen(un.X)
				v := analysis.FieldOf(pass.TypesInfo, target)
				if v == nil {
					continue
				}
				if _, seen := atomicVars[v]; !seen {
					atomicVars[v] = call.Pos()
				}
				sanctioned[target] = true
			}
			return true
		})
	}
	if len(atomicVars) == 0 {
		return nil
	}
	// Pass 2: any other reference to those vars is a plain access.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var v *types.Var
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if fv, ok := pass.TypesInfo.ObjectOf(x.Sel).(*types.Var); ok && fv.IsField() {
					v = fv
				}
			case *ast.Ident:
				if fv, ok := pass.TypesInfo.ObjectOf(x).(*types.Var); ok && !fv.IsField() {
					v = fv
				}
			default:
				return true
			}
			if v == nil {
				return true
			}
			first, isAtomic := atomicVars[v]
			if !isAtomic || sanctioned[n.(ast.Expr)] {
				return true
			}
			// The declaration site and struct literals keyed by the field
			// are not accesses.
			if pass.Fset.Position(n.Pos()) == pass.Fset.Position(v.Pos()) {
				return true
			}
			pass.Reportf(n.Pos(),
				"plain access to %s, which is accessed atomically at %s; every access must go through sync/atomic",
				v.Name(), pass.Fset.Position(first))
			return false
		})
	}
	return nil
}
