package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// LockOrder detects potential deadlocks between the project's named
// mutexes. A struct field annotated //kylix:lock <class> joins a global
// lock-class graph; whenever class B is acquired while class A is held
// — directly, or through a statically resolved project-local call chain
// — the analyzer records the edge A -> B. Any cycle in the resulting
// acquisition-order graph is a potential deadlock and is reported at
// every locally contributed edge that completes one.
//
// The per-function analysis is lexical with branch-local held tracking:
// after `mu.Lock()` the class is held; `mu.Unlock()` inside a branch
// releases it for that branch only; `defer mu.Unlock()` keeps the
// section open to the end of the function. Cross-function reasoning
// flows through the vetx facts: each function exports the transitive
// set of lock classes it may acquire, each package exports its lock
// field names and its locally observed edges, and downstream packages
// fold imported edges into their own graph. Interface calls are
// invisible (no static callee), so the graph under-approximates — it
// never false-positives on dynamic dispatch. Self-edges (class A
// acquired while A is held) are reported too: the project's mutexes are
// not reentrant and no code hands over instances of one class.
//
// The same walk keeps the observability-outside-the-lock contract: a
// class declared `//kylix:lock <class> obsfree` in this package (the
// mailbox, the traffic-store shards) is never held across a
// comm.Observer, obs.Tracer, Observatory or metrics-registry call.
// Holding it across an observer callback serializes every sender
// behind whatever the observer does, and an observer that blocks
// deadlocks the transport. Calls in a closure literal or go statement
// written inside the section count.
//
// It also keeps the atomic discipline: sync/atomic's functions are never
// called. Every atomic is a typed atomic.* value, which plain access
// cannot race; a hand-rolled one (atomic.AddInt64(&s.n, 1)) is one plain
// s.n++ away from losing updates.
//
// Test files contribute no edges and are not held to the atomic rule;
// the obsfree rule covers them too. Suppress a deliberate edge with
// //kylix:allow lockorder:<acquired-class>, a deliberate observer call
// with //kylix:allow lockorder:obs, a deliberate atomic call with
// //kylix:allow lockorder:atomic-func.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "acquisition order over //kylix:lock classes must stay acyclic, obsfree classes are never held across observer calls, and sync/atomic functions are never called",
	Run:  runLockOrder,
}

// orderEdge is a locally observed edge, pre-serialization.
type orderEdge struct {
	from, to string
	pos      token.Pos
}

func runLockOrder(p *Pass) error {
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && fn.Type().(*types.Signature).Recv() == nil {
					p.Reportf(call.Pos(), "atomic-func", "call to sync/atomic.%s: use a typed atomic.* value, which plain access cannot race", fn.Name())
				}
			}
			return true
		})
	}
	ann := p.Ann()
	// Export this package's lock-class vocabulary so dependents can
	// classify locks on imported types.
	if len(ann.LockFields) > 0 {
		if p.Facts.LockNames == nil {
			p.Facts.LockNames = map[string]string{}
		}
		for k, v := range ann.LockFields {
			p.Facts.LockNames[k] = v
		}
	}

	// Pass 1: per-function direct acquires and local call lists, then a
	// fixpoint for the transitive acquire sets (exported as facts).
	decls := map[string]*ast.FuncDecl{}
	acq := map[string]map[string]bool{}
	localCalls := map[string][]string{}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			id := DeclID(p.Info, d)
			decls[id] = d
			direct := map[string]bool{}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					// Closures acquire on their own schedule, and a
					// spawned goroutine runs on its own stack — neither
					// extends this function's acquire set.
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if method, class, ok := lockClassOf(p, call); ok {
					if method == "Lock" || method == "RLock" {
						direct[class] = true
					}
					return true
				}
				for _, class := range calleeAcquires(p, call, nil) {
					direct[class] = true
				}
				return true
			})
			acq[id] = direct
			ast.Inspect(d.Body, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.FuncLit, *ast.GoStmt:
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := calleeFunc(p, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == p.Pkg.Path() {
					localCalls[id] = append(localCalls[id], FuncID(fn))
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for id, callees := range localCalls {
			for _, callee := range callees {
				for class := range acq[callee] {
					if !acq[id][class] {
						acq[id][class] = true
						changed = true
					}
				}
			}
		}
	}
	if p.Facts.Funcs == nil {
		p.Facts.Funcs = map[string]FuncFacts{}
	}
	for id, classes := range acq {
		if len(classes) == 0 {
			continue
		}
		ff := p.Facts.Funcs[id]
		ff.LockAcquires = sortedKeys(classes)
		p.Facts.Funcs[id] = ff
	}

	// Pass 2: walk bodies with branch-local held tracking, recording
	// the edges this package's code contributes and flagging observer
	// calls under obsfree classes.
	w := &orderWalker{p: p, acq: acq, dedup: map[string]bool{}}
	for _, f := range p.Files {
		w.test = p.IsTestFile(f.Pos())
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			w.walk(d.Body.List, map[string]string{})
			// Closure bodies are separate scopes with their own stacks;
			// walk each with a fresh held set.
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					w.walk(lit.Body.List, map[string]string{})
				}
				return true
			})
		}
	}
	p.Facts.LockEdges = append(p.Facts.LockEdges, exportEdges(p, w.edges)...)

	// Pass 3: fold in the edges of every (transitively) imported
	// project package and report each local edge that closes a cycle.
	all := append([]orderEdge{}, w.edges...)
	for _, e := range importedLockEdges(p) {
		all = append(all, orderEdge{from: e.From, to: e.To})
	}
	adj := map[string]map[string]bool{}
	for _, e := range all {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	reported := map[string]bool{}
	for _, e := range w.edges {
		var path []string // e.to ... e.from, closing the cycle
		if e.from == e.to {
			path = []string{e.to}
		} else {
			path = lockPath(adj, e.to, e.from)
		}
		if path == nil {
			continue
		}
		key := e.from + "\x00" + e.to
		if reported[key] {
			continue
		}
		reported[key] = true
		cycle := append([]string{e.from}, path...)
		p.Reportf(e.pos, e.to,
			"acquiring lock class %q while %q is held forms a lock-order cycle: %s — a potential deadlock",
			e.to, e.from, strings.Join(cycle, " -> "))
	}
	return nil
}

// orderWalker tracks the held lock classes through one function body,
// branch-locally, collecting acquisition-order edges. held maps each
// class to the mutex expression that took it ("b.mu"), for messages.
type orderWalker struct {
	p     *Pass
	acq   map[string]map[string]bool
	edges []orderEdge
	dedup map[string]bool
	// test marks a _test.go file: its sections are checked for
	// observer calls but add no edges.
	test bool
}

func (w *orderWalker) walk(stmts []ast.Stmt, held map[string]string) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				w.handleCall(call, held, false)
				continue
			}
			w.scan(stmt, held, true)
		case *ast.DeferStmt:
			w.handleCall(s.Call, held, true)
		case *ast.GoStmt:
			// The spawned goroutine acquires on its own stack, not
			// under the spawner's held set; only the observer check
			// applies to the code written here.
			w.scan(s, held, false)
		case *ast.BlockStmt:
			w.walk(s.List, maps.Clone(held))
		case *ast.IfStmt:
			if s.Init != nil {
				w.scan(s.Init, held, true)
			}
			w.scan(s.Cond, held, true)
			w.walk(s.Body.List, maps.Clone(held))
			switch els := s.Else.(type) {
			case *ast.BlockStmt:
				w.walk(els.List, maps.Clone(held))
			case *ast.IfStmt:
				w.walk([]ast.Stmt{els}, maps.Clone(held))
			}
		case *ast.ForStmt:
			w.walk(s.Body.List, maps.Clone(held))
		case *ast.RangeStmt:
			w.scan(s.X, held, true)
			w.walk(s.Body.List, maps.Clone(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, maps.Clone(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, maps.Clone(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.walk(cc.Body, maps.Clone(held))
				}
			}
		default:
			w.scan(stmt, held, true)
		}
	}
}

// handleCall interprets a statement-position (or deferred) call: lock
// operations on classed mutexes update the held set, everything else is
// scanned.
func (w *orderWalker) handleCall(call *ast.CallExpr, held map[string]string, deferred bool) {
	if method, class, ok := lockClassOf(w.p, call); ok {
		switch method {
		case "Lock", "RLock":
			if !deferred {
				for from := range held {
					w.addEdge(from, class, call.Pos())
				}
				held[class] = exprString(call.Fun.(*ast.SelectorExpr).X)
			}
		case "Unlock", "RUnlock":
			// A deferred Unlock keeps the section open to function end.
			if !deferred {
				delete(held, class)
			}
		}
		return
	}
	w.scan(call, held, true)
}

// scan checks every call nested in n against the held set: observer
// calls under an obsfree class and, with edges, acquiring callees. A
// closure literal (like a go statement) acquires on its own schedule,
// so it adds no edges, but an observer call written inside the section
// is still flagged.
func (w *orderWalker) scan(n ast.Node, held map[string]string, edges bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if edges {
				w.scan(n.Body, held, false)
				return false
			}
		case *ast.CallExpr:
			w.reportObs(n, held)
			if edges {
				w.edgesFor(n, held)
			}
		}
		return true
	})
}

// edgesFor adds held-set edges for a single resolved call's transitive
// acquires.
func (w *orderWalker) edgesFor(call *ast.CallExpr, held map[string]string) {
	if method, class, ok := lockClassOf(w.p, call); ok {
		// A nested Lock expression (unusual, but e.g. inside a bound
		// method value) still orders after what is held.
		if method == "Lock" || method == "RLock" {
			for from := range held {
				w.addEdge(from, class, call.Pos())
			}
		}
		return
	}
	for _, class := range calleeAcquires(w.p, call, w.acq) {
		for from := range held {
			w.addEdge(from, class, call.Pos())
		}
	}
}

// reportObs flags call if it targets an observability hook while an
// obsfree class is held.
func (w *orderWalker) reportObs(call *ast.CallExpr, held map[string]string) {
	var mutexes []string
	for class, mutex := range held {
		if w.p.Ann().Obsfree[class] {
			mutexes = append(mutexes, mutex)
		}
	}
	if len(mutexes) == 0 {
		return
	}
	name, why := obsCallee(w.p, call)
	if name == "" {
		return
	}
	sort.Strings(mutexes)
	w.p.Reportf(call.Pos(), "obs",
		"%s called while %s is held (%s); release the mutex before notifying observers",
		name, strings.Join(mutexes, ", "), why)
}

func (w *orderWalker) addEdge(from, to string, pos token.Pos) {
	if w.test {
		return
	}
	key := from + "\x00" + to + "\x00" + shortPos(w.p.Fset, pos)
	if w.dedup[key] {
		return
	}
	w.dedup[key] = true
	w.edges = append(w.edges, orderEdge{from: from, to: to, pos: pos})
}

// lockClassOf matches recv.field.Lock()-shaped calls on fields carrying
// a //kylix:lock class — declared in this package or, for imported
// types, published through the owning package's LockNames facts.
func lockClassOf(p *Pass, call *ast.CallExpr) (method, class string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	inner, isSel := sel.X.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fieldVar, _ := p.Info.Uses[inner.Sel].(*types.Var)
	if fieldVar == nil || !fieldVar.IsField() {
		return "", "", false
	}
	t := p.Info.TypeOf(inner.X)
	if t == nil {
		return "", "", false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	key := named.Obj().Name() + "." + fieldVar.Name()
	ownerPath := named.Obj().Pkg().Path()
	switch {
	case ownerPath == p.Pkg.Path():
		class = p.Ann().LockFields[key]
	case p.Local(ownerPath):
		if facts := p.ImportFacts(ownerPath); facts != nil {
			class = facts.LockNames[key]
		}
	}
	if class == "" {
		return "", "", false
	}
	return sel.Sel.Name, class, true
}

// calleeAcquires resolves the transitive lock classes a statically
// resolved project-local callee may take: same-package through the
// fixpoint sets (acq, when available), cross-package through facts.
func calleeAcquires(p *Pass, call *ast.CallExpr, acq map[string]map[string]bool) []string {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	path, id := fn.Pkg().Path(), FuncID(fn)
	if path == p.Pkg.Path() {
		if acq == nil {
			return nil // pass 1 resolves local callees via the fixpoint instead
		}
		return sortedKeys(acq[id])
	}
	if !p.Local(path) {
		return nil
	}
	if facts := p.ImportFacts(path); facts != nil {
		return facts.Funcs[id].LockAcquires
	}
	return nil
}

// importedLockEdges unions the edges of every transitively imported
// project package.
func importedLockEdges(p *Pass) []LockEdge {
	var out []LockEdge
	seen := map[string]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		for _, imp := range pkg.Imports() {
			path := imp.Path()
			if seen[path] || !p.Local(path) {
				continue
			}
			seen[path] = true
			if facts := p.ImportFacts(path); facts != nil {
				out = append(out, facts.LockEdges...)
			}
			visit(imp)
		}
	}
	visit(p.Pkg)
	return out
}

// lockPath finds a path from -> to in the class graph (BFS), inclusive
// of both endpoints, or nil when unreachable. Neighbor expansion is
// sorted so the reported path is deterministic.
func lockPath(adj map[string]map[string]bool, from, to string) []string {
	parent := map[string]string{}
	visited := map[string]bool{from: true}
	queue := []string{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == to {
			path := []string{cur}
			for cur != from {
				cur = parent[cur]
				path = append([]string{cur}, path...)
			}
			return path
		}
		for _, next := range sortedKeys(adj[cur]) {
			if !visited[next] {
				visited[next] = true
				parent[next] = cur
				queue = append(queue, next)
			}
		}
	}
	return nil
}

func exportEdges(p *Pass, edges []orderEdge) []LockEdge {
	out := make([]LockEdge, 0, len(edges))
	for _, e := range edges {
		out = append(out, LockEdge{From: e.from, To: e.to, Pos: shortPos(p.Fset, e.pos)})
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
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
