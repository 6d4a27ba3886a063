package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockOrder detects potential deadlocks between the project's named
// mutexes. A struct field annotated //kylix:lock <class> joins a global
// lock-class graph; whenever class B is acquired while class A is held
// — directly, or through a statically resolved project-local call chain
// — the analyzer records the edge A -> B. Any cycle in the resulting
// acquisition-order graph is a potential deadlock and is reported at
// every locally contributed edge that completes one.
//
// The per-function analysis is lexical with branch-local held tracking
// (the same model as lockobs); cross-function reasoning flows through
// the vetx facts: each function exports the transitive set of lock
// classes it may acquire, each package exports its lock field names and
// its locally observed edges, and downstream packages fold imported
// edges into their own graph. Interface calls are invisible (no static
// callee), so the graph under-approximates — it never false-positives
// on dynamic dispatch. Self-edges (class A acquired while A is held)
// are reported too: the project's mutexes are not reentrant and no code
// hands over instances of one class.
//
// It also keeps the atomic discipline: sync/atomic's functions are never
// called. Every atomic is a typed atomic.* value, which plain access
// cannot race; a hand-rolled one (atomic.AddInt64(&s.n, 1)) is one plain
// s.n++ away from losing updates.
//
// Test files are skipped. Suppress a deliberate edge with
// //kylix:allow lockorder:<acquired-class>, a deliberate call with
// //kylix:allow lockorder:atomic-func.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "acquisition order over //kylix:lock classes must stay acyclic, and sync/atomic functions are never called",
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
	// the edges this package's code contributes.
	w := &orderWalker{p: p, acq: acq, dedup: map[string]bool{}}
	for _, f := range p.Files {
		if p.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Body == nil {
				continue
			}
			w.walk(d.Body.List, map[string]bool{})
			// Closure bodies are separate scopes with their own stacks;
			// walk each with a fresh held set.
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					w.walk(lit.Body.List, map[string]bool{})
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
			e.to, e.from, joinArrow(cycle))
	}
	return nil
}

// orderWalker tracks the held lock classes through one function body,
// branch-locally, collecting acquisition-order edges.
type orderWalker struct {
	p     *Pass
	acq   map[string]map[string]bool
	edges []orderEdge
	dedup map[string]bool
}

func (w *orderWalker) walk(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				w.handleCall(call, held, false)
				continue
			}
			w.scanStmt(stmt, held)
		case *ast.DeferStmt:
			w.handleCall(s.Call, held, true)
		case *ast.GoStmt:
			// The spawned goroutine acquires on its own stack, not
			// under the spawner's held set.
		case *ast.BlockStmt:
			w.walk(s.List, forkClasses(held))
		case *ast.IfStmt:
			if s.Init != nil {
				w.scanStmt(s.Init, held)
			}
			w.scanExpr(s.Cond, held)
			w.walk(s.Body.List, forkClasses(held))
			switch els := s.Else.(type) {
			case *ast.BlockStmt:
				w.walk(els.List, forkClasses(held))
			case *ast.IfStmt:
				w.walk([]ast.Stmt{els}, forkClasses(held))
			}
		case *ast.ForStmt:
			w.walk(s.Body.List, forkClasses(held))
		case *ast.RangeStmt:
			w.scanExpr(s.X, held)
			w.walk(s.Body.List, forkClasses(held))
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, forkClasses(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, forkClasses(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.walk(cc.Body, forkClasses(held))
				}
			}
		default:
			w.scanStmt(stmt, held)
		}
	}
}

// handleCall interprets a statement-position (or deferred) call: lock
// operations on classed mutexes update the held set, everything else is
// scanned for acquiring callees.
func (w *orderWalker) handleCall(call *ast.CallExpr, held map[string]bool, deferred bool) {
	if method, class, ok := lockClassOf(w.p, call); ok {
		switch method {
		case "Lock", "RLock":
			if !deferred {
				for from := range held {
					w.addEdge(from, class, call.Pos())
				}
				held[class] = true
			}
		case "Unlock", "RUnlock":
			// A deferred Unlock keeps the section open to function end.
			if !deferred {
				delete(held, class)
			}
		}
		return
	}
	w.scanExpr(call, held)
}

// scanStmt records edges for every acquiring call nested in a
// non-compound statement.
func (w *orderWalker) scanStmt(stmt ast.Stmt, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.edgesFor(call, held)
		}
		return true
	})
}

func (w *orderWalker) scanExpr(expr ast.Expr, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			w.edgesFor(call, held)
		}
		return true
	})
}

// edgesFor adds held-set edges for a single resolved call's transitive
// acquires.
func (w *orderWalker) edgesFor(call *ast.CallExpr, held map[string]bool) {
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

func (w *orderWalker) addEdge(from, to string, pos token.Pos) {
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

// forkClasses copies the held-class set for branch-local tracking.
func forkClasses(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
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

func joinArrow(classes []string) string {
	s := ""
	for i, c := range classes {
		if i > 0 {
			s += " -> "
		}
		s += c
	}
	return s
}
