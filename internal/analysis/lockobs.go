package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// LockObs enforces the observability-outside-the-lock contract from the
// runtime observability layer: a comm.Observer, obs.Tracer,
// Observatory or metrics-registry method must never be called while a
// mutex annotated //kylix:obsfree is held. Holding the mailbox (or
// traffic-store shard) mutex across an observer callback reintroduces
// the PR 3 contention bug: every sender serializes behind whatever the
// observer does, and an observer that blocks deadlocks the transport.
//
// The analysis is lexical, per function, with branch-local state: after
// `mu.Lock()` the mutex is held; `mu.Unlock()` inside a branch releases
// it for that branch only (the unlock-then-observe-then-return
// shape); `defer mu.Unlock()` keeps the section open to the end of the
// function. Only mutexes matched by field name against an
// //kylix:obsfree annotation participate — obs-internal mutexes (e.g.
// the tracer ring's own lock) are free to guard their own state.
var LockObs = &Analyzer{
	Name: "lockobs",
	Doc:  "observability hooks must not be called while an //kylix:obsfree mutex is held",
	Run:  runLockObs,
}

// obsPkgPath is the observability package whose methods are banned
// inside obsfree critical sections.
const obsPkgPath = "kylix/internal/obs"

// observerMethods are the comm.Observer interface methods, banned by
// name regardless of the concrete receiver (transports hold the
// observer as an interface).
var observerMethods = map[string]bool{
	"ObserveSend":      true,
	"ObserveRecv":      true,
	"ObserveRecvGroup": true,
}

func runLockObs(p *Pass) error {
	obsfree := p.Ann().ObsfreeFields
	if len(obsfree) == 0 {
		return nil
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			held := map[string]ast.Expr{} // mutex expr string -> Lock call site
			walkLockStmts(p, d.Body.List, held, obsfree)
		}
	}
	return nil
}

// walkLockStmts processes statements in source order. Compound
// statements fork the held set: an Unlock inside an if body releases
// the mutex for that body alone, so the sibling branch — still lexically
// under the lock — keeps being checked.
func walkLockStmts(p *Pass, stmts []ast.Stmt, held map[string]ast.Expr, obsfree map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				handleLockCall(p, call, held, obsfree, false)
			}
		case *ast.DeferStmt:
			handleLockCall(p, s.Call, held, obsfree, true)
		case *ast.BlockStmt:
			walkLockStmts(p, s.List, forkHeld(held), obsfree)
		case *ast.IfStmt:
			if s.Init != nil {
				checkStmtCalls(p, s.Init, held, obsfree)
			}
			checkExprCalls(p, s.Cond, held, obsfree)
			walkLockStmts(p, s.Body.List, forkHeld(held), obsfree)
			switch els := s.Else.(type) {
			case *ast.BlockStmt:
				walkLockStmts(p, els.List, forkHeld(held), obsfree)
			case *ast.IfStmt:
				walkLockStmts(p, []ast.Stmt{els}, forkHeld(held), obsfree)
			}
		case *ast.ForStmt:
			walkLockStmts(p, s.Body.List, forkHeld(held), obsfree)
		case *ast.RangeStmt:
			checkExprCalls(p, s.X, held, obsfree)
			walkLockStmts(p, s.Body.List, forkHeld(held), obsfree)
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockStmts(p, cc.Body, forkHeld(held), obsfree)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockStmts(p, cc.Body, forkHeld(held), obsfree)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLockStmts(p, cc.Body, forkHeld(held), obsfree)
				}
			}
		default:
			checkStmtCalls(p, stmt, held, obsfree)
		}
	}
}

// handleLockCall interprets one call statement: a Lock/Unlock on an
// obsfree mutex updates the held set; anything else is checked for
// observability calls (including nested call arguments).
func handleLockCall(p *Pass, call *ast.CallExpr, held map[string]ast.Expr, obsfree map[string]bool, deferred bool) {
	if name, mutexKey, ok := mutexOp(p, call, obsfree); ok {
		switch name {
		case "Lock", "RLock":
			if !deferred {
				held[mutexKey] = call.Fun
			}
		case "Unlock", "RUnlock":
			// A deferred Unlock pairs with the Lock above it: the
			// section stays lexically open to the end of the function.
			if !deferred {
				delete(held, mutexKey)
			}
		}
		return
	}
	checkExprCalls(p, call, held, obsfree)
}

// mutexOp matches a call of the form recv.field.Lock() where field is
// annotated //kylix:obsfree, returning the method name and a key
// identifying the mutex expression.
func mutexOp(p *Pass, call *ast.CallExpr, obsfree map[string]bool) (method, key string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	// The receiver must be a selector ending in an annotated field:
	// m.mu.Lock(), sh.mu.Lock(), c.shards[i].mu.Lock().
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fieldVar, _ := p.Info.Uses[inner.Sel].(*types.Var)
	if fieldVar == nil || !fieldVar.IsField() {
		return "", "", false
	}
	owner := ownerTypeName(p, inner.X)
	if owner == "" || !obsfree[owner+"."+fieldVar.Name()] {
		return "", "", false
	}
	return sel.Sel.Name, exprString(inner), true
}

// ownerTypeName names the struct type of the expression the mutex field
// is selected from (pointers stripped).
func ownerTypeName(p *Pass, expr ast.Expr) string {
	t := p.Info.TypeOf(expr)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// checkStmtCalls scans one non-compound statement for observability
// calls made while a mutex is held.
func checkStmtCalls(p *Pass, stmt ast.Stmt, held map[string]ast.Expr, obsfree map[string]bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			reportObsCall(p, call, held)
		}
		return true
	})
}

// checkExprCalls scans an expression subtree for observability calls.
func checkExprCalls(p *Pass, expr ast.Expr, held map[string]ast.Expr, obsfree map[string]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			reportObsCall(p, call, held)
		}
		return true
	})
}

// reportObsCall flags call if it targets an observability hook while
// any obsfree mutex is held.
func reportObsCall(p *Pass, call *ast.CallExpr, held map[string]ast.Expr) {
	if len(held) == 0 {
		return
	}
	name, why := obsCallee(p, call)
	if name == "" {
		return
	}
	var mutexes []string
	for k := range held {
		mutexes = append(mutexes, k)
	}
	sort.Strings(mutexes)
	p.Reportf(call.Pos(), "",
		"%s called while %s is held (%s); release the mutex before notifying observers",
		name, strings.Join(mutexes, ", "), why)
}

// obsCallee classifies the call's target: a comm.Observer method (by
// interface method set), any method on a kylix/internal/obs type, or a
// method named like the observer hooks.
func obsCallee(p *Pass, call *ast.CallExpr) (name, why string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, _ := p.Info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return "", ""
	}
	if observerMethods[fn.Name()] {
		return fn.Name(), "comm.Observer hook"
	}
	recvType := sig.Recv().Type()
	if ptr, ok := recvType.(*types.Pointer); ok {
		recvType = ptr.Elem()
	}
	if named, ok := recvType.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == obsPkgPath {
			return obj.Name() + "." + fn.Name(), "kylix/internal/obs method"
		}
	}
	// Observer-shaped helpers (observeRecv, ObserveDelivery, ...): the
	// analysis is lexical, so a local wrapper that forwards to the real
	// hook would otherwise smuggle the call under the lock.
	if strings.HasPrefix(fn.Name(), "Observe") || strings.HasPrefix(fn.Name(), "observe") {
		return fn.Name(), "observer-shaped method"
	}
	return "", ""
}

// forkHeld copies the held set for branch-local tracking.
func forkHeld(held map[string]ast.Expr) map[string]ast.Expr {
	out := make(map[string]ast.Expr, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// exprString renders a small expression (mutex path) for messages.
func exprString(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.UnaryExpr:
		return exprString(e.X)
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return "mutex"
}
