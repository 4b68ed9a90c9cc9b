// Package poolcheck enforces the bufpool ownership rules.
//
// The arena (internal/bufpool) hands out size-classed buffers whose
// freelists back the zero-allocation steady state; a Get without a Put
// silently degrades the arena into a plain allocator, and a use after Put
// is a data race with the next owner. Both failure modes survive every
// functional test — the bytes are still correct — so they must be caught
// statically.
//
// The analyzer tracks, per function, every variable bound to the result
// of a bufpool Get/GetZero/GetSlices call:
//
//   - Ownership stays local: on every path that leaves the function the
//     buffer must have been released with Put/PutSlices (a deferred
//     release covers all paths).
//   - Ownership transfers: if the buffer escapes — returned, stored into
//     a field, slice, map or closure, or passed to any call other than a
//     bufpool release — the callee or container becomes the owner and the
//     leak check is waived (the use-after-Put check still applies).
//   - No use after release: once the buffer has definitely been Put on
//     the current path, any further use of the variable is flagged.
//
// The path-sensitive walk itself — branch cloning, merge at joins, loop
// bodies iterated twice to expose cross-iteration misuse — is the shared
// flow.Walker engine; this package supplies only the ownership lattice
// and the bufpool call classification, and only reports on *definite*
// states, so a conditional release followed by a merged use is never a
// false positive. Sanction a deliberate violation with //eplog:pool-ok
// on the offending line.
package poolcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/eplog/eplog/internal/analysis"
	"github.com/eplog/eplog/internal/analysis/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "poolcheck",
	Doc: "pair every bufpool Get with a Put on all paths; no use after Put\n\n" +
		"Buffers from the bufpool arena are owned by their getter until\n" +
		"released with Put/PutSlices or handed off (returned, stored, or\n" +
		"passed to another function). Flags paths that drop the buffer and\n" +
		"uses of a buffer after it was released. Opt out per line with\n" +
		"//eplog:pool-ok.",
	Run: run,
}

// Variable states for the path-sensitive walk.
const (
	stHeld     = iota // definitely owns a live buffer
	stReleased        // definitely returned to the pool
	stMaybe           // differs across merged paths: stay silent
	stOff             // reassigned to a non-pool value: stop tracking
)

func mergeState(a, b int) int {
	switch {
	case a == b:
		return a
	case a == stOff || b == stOff:
		return stOff
	default:
		return stMaybe
	}
}

// poolCall classifies a call expression against the bufpool API.
type poolCall struct {
	acquire bool   // Get/GetZero/GetSlices
	release bool   // Put/PutSlices
	slices  bool   // the [][]byte flavour
	putName string // matching release method for an acquire
}

func classify(pass *analysis.Pass, call *ast.CallExpr) (poolCall, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return poolCall{}, false
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok {
		return poolCall{}, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "bufpool" {
		return poolCall{}, false
	}
	switch fn.Name() {
	case "Get", "GetZero":
		return poolCall{acquire: true, putName: "Put"}, true
	case "GetSlices":
		return poolCall{acquire: true, slices: true, putName: "PutSlices"}, true
	case "Put":
		return poolCall{release: true}, true
	case "PutSlices":
		return poolCall{release: true, slices: true}, true
	}
	return poolCall{}, false
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ann := analysis.NewAnnotations(pass.Fset, file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, ann, fd.Body)
			// Function literals get their own independent walk: a
			// buffer acquired inside a closure must balance inside it.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkFunc(pass, ann, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// tracked describes one pool-owned variable within a function.
type tracked struct {
	obj     types.Object
	getPos  token.Pos
	putName string
	// escaped: ownership may have transferred (returned, stored,
	// captured, or passed to a non-release call) — waive the leak check.
	escaped bool
	// deferred: a `defer Put(v)` exists, releasing v on every exit.
	deferred bool
}

type state = map[types.Object]int

type checker struct {
	pass     *analysis.Pass
	ann      *analysis.Annotations
	vars     map[types.Object]*tracked
	reported map[token.Pos]bool
	bailed   bool // goto / labeled branch: give up on this function
}

func checkFunc(pass *analysis.Pass, ann *analysis.Annotations, body *ast.BlockStmt) {
	c := &checker{
		pass:     pass,
		ann:      ann,
		vars:     make(map[types.Object]*tracked),
		reported: make(map[token.Pos]bool),
	}
	c.collect(body)
	if len(c.vars) == 0 || c.bailed {
		return
	}
	w := flow.NewWalker(flow.Hooks[state]{
		Clone:    cloneState,
		Merge:    mergeStates,
		Exec:     c.exec,
		Eval:     c.eval,
		Return:   func(ret *ast.ReturnStmt, st state) { c.checkExit(ret.Pos(), st) },
		BlockEnd: c.blockEnd,
		NoReturn: c.isPanic,
	})
	out, terminated := w.Walk(body, make(state))
	if w.Bailed {
		return
	}
	if !terminated {
		c.checkExit(body.Rbrace, out)
	}
}

// exec applies one simple statement: report definite uses-after-release
// in its expressions, then apply release calls and (re)assignments.
func (c *checker) exec(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.ExprStmt:
		st = c.eval(s.X, st)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = c.eval(rhs, st)
		}
		for _, lhs := range s.Lhs {
			// Writing *through* the buffer (v[i] = x) is a use of v.
			if _, ok := lhs.(*ast.Ident); !ok {
				c.checkUses(lhs, st)
			}
		}
		c.applyAssign(s, st)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = c.eval(v, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.checkUses(s.X, st)
	case *ast.SendStmt:
		c.checkUses(s.Chan, st)
		c.checkUses(s.Value, st)
	case *ast.DeferStmt:
		// Deferred releases were registered in collect; a deferred
		// non-release call is an escape, also handled there.
		c.checkUses(s.Call, st)
	case *ast.GoStmt:
		c.checkUses(s.Call, st)
	}
	return st
}

// eval applies one evaluated expression: uses, then release transitions.
func (c *checker) eval(e ast.Expr, st state) state {
	c.checkUses(e, st)
	c.applyCalls(e, st)
	return st
}

// blockEnd reports buffers whose variable goes out of scope at a closing
// brace while definitely still held: nothing can release them after.
func (c *checker) blockEnd(b *ast.BlockStmt, out state) state {
	for obj, t := range c.vars {
		if s, seen := out[obj]; t.escaped || t.deferred || !seen || s != stHeld {
			continue
		}
		scope := obj.Parent()
		if scope == nil || scope.Pos() < b.Pos() || scope.End() > b.End() {
			continue
		}
		out[obj] = stOff
		if c.reported[b.Rbrace] || c.ann.At(t.getPos, "pool-ok") {
			continue
		}
		c.reported[b.Rbrace] = true
		c.pass.Reportf(b.Rbrace, "%s goes out of scope still holding a pool buffer: acquired at %s but not released with bufpool.%s (sanction with //eplog:pool-ok)",
			obj.Name(), c.pass.Fset.Position(t.getPos), t.putName)
	}
	return out
}

// collect finds tracked variables, escapes and deferred releases in one
// pre-pass over the function body (excluding nested function literals).
func (c *checker) collect(body *ast.BlockStmt) {
	// Pass 1: acquisition sites bound to a simple local variable.
	inspectNoFuncLit(body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok || id.Name == "_" {
				return
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return
			}
			pc, ok := classify(c.pass, call)
			if !ok || !pc.acquire {
				return
			}
			obj := c.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = c.pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				return
			}
			c.vars[obj] = &tracked{obj: obj, getPos: call.Pos(), putName: pc.putName}
		case *ast.BranchStmt:
			// Labeled branches and goto defeat the structured walk.
			if n.Label != nil || n.Tok == token.GOTO {
				c.bailed = true
			}
		}
	})
	if len(c.vars) == 0 {
		return
	}
	// Pass 2: escapes and deferred releases.
	parents := parentMap(body)
	inspectAll(body, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := c.pass.TypesInfo.Uses[id]
		t := c.vars[obj]
		if t == nil {
			return
		}
		switch use := classifyUse(c.pass, parents, id); use {
		case useEscape:
			t.escaped = true
		case useDeferRelease:
			t.deferred = true
		}
	})
}

type useKind int

const (
	useRead         useKind = iota // local read/write through the buffer: fine
	useRelease                     // argument of a bufpool Put/PutSlices
	useDeferRelease                // same, via defer
	useEscape                      // ownership may transfer
)

// classifyUse climbs from an identifier use to the construct that consumes
// its value and decides whether ownership can escape there.
func classifyUse(pass *analysis.Pass, parents map[ast.Node]ast.Node, id *ast.Ident) useKind {
	// A use inside a nested function literal is a capture: the closure
	// may outlive this activation, so ownership escapes.
	for p := parents[id]; p != nil; p = parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return useEscape
		}
	}
	var child ast.Node = id
	for {
		parent := parents[child]
		if parent == nil {
			return useRead
		}
		switch p := parent.(type) {
		case *ast.ParenExpr:
			child = p
			continue
		case *ast.SliceExpr:
			if p.X == child {
				// v[a:b] aliases the same buffer: keep climbing as
				// the slice value. Index expressions (v[i]) yield an
				// element, not the buffer, so they stop below.
				child = p
				continue
			}
			return useRead
		case *ast.IndexExpr:
			if p.X == child {
				// v[i] reads or writes an element (or, for [][]byte,
				// yields one sub-buffer: treat as a transfer only if
				// the element itself then escapes — keep climbing).
				child = p
				continue
			}
			return useRead
		case *ast.StarExpr, *ast.UnaryExpr, *ast.CompositeLit,
			*ast.ReturnStmt, *ast.SendStmt, *ast.KeyValueExpr:
			return useEscape
		case *ast.CallExpr:
			for _, arg := range p.Args {
				if arg == child {
					if pc, ok := classify(pass, p); ok && pc.release {
						if d, ok := parents[p].(*ast.DeferStmt); ok && d.Call == p {
							return useDeferRelease
						}
						return useRelease
					}
					if isNonOwningBuiltin(pass, p) {
						return useRead
					}
					return useEscape
				}
			}
			return useRead // v.method() receiver or inside Fun: not an arg
		case *ast.AssignStmt:
			for _, rhs := range p.Rhs {
				if rhs == child {
					return useEscape // aliased or stored: owner unclear
				}
			}
			return useRead // appears on the LHS (v[i] = x, or v = ...)
		case *ast.ValueSpec:
			for _, v := range p.Values {
				if v == child {
					return useEscape
				}
			}
			return useRead
		case *ast.BinaryExpr, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
			*ast.SwitchStmt, *ast.CaseClause, *ast.ExprStmt, *ast.IncDecStmt,
			*ast.BlockStmt, *ast.SelectorExpr, *ast.TypeAssertExpr:
			return useRead
		case *ast.FuncLit:
			return useEscape // captured by a closure
		default:
			child = parent
		}
	}
}

// isNonOwningBuiltin reports calls that read a buffer without taking
// ownership: len, cap, copy, clear, println (debug).
func isNonOwningBuiltin(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
		return false
	}
	switch id.Name {
	case "len", "cap", "copy", "clear", "min", "max", "println", "print":
		return true
	}
	return false
}

// --- lattice plumbing -------------------------------------------------

func cloneState(st state) state {
	out := make(state, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

func mergeStates(dst, src state) state {
	for k, v := range src {
		if cur, ok := dst[k]; ok {
			dst[k] = mergeState(cur, v)
		} else {
			// Absent on the other path (e.g. acquired in one branch of
			// an if with a pre-declared variable): indefinite.
			dst[k] = mergeState(stMaybe, v)
		}
	}
	for k, cur := range dst {
		if _, ok := src[k]; !ok {
			dst[k] = mergeState(cur, stMaybe)
		}
	}
	return dst
}

// applyAssign updates states for `v := Get(...)`, `v = Get(...)` and
// plain reassignments that end tracking.
func (c *checker) applyAssign(s *ast.AssignStmt, st state) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		// Multi-assign involving a tracked var: stop tracking it.
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := identObj(c.pass, id); obj != nil && c.vars[obj] != nil {
					st[obj] = stOff
				}
			}
		}
		return
	}
	id, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	obj := identObj(c.pass, id)
	if obj == nil || c.vars[obj] == nil {
		return
	}
	if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
		if pc, ok := classify(c.pass, call); ok && pc.acquire {
			st[obj] = stHeld
			return
		}
	}
	st[obj] = stOff
}

// applyCalls transitions states for release calls found anywhere in expr
// (excluding nested function literals).
func (c *checker) applyCalls(expr ast.Expr, st state) {
	inspectNoFuncLit(expr, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		pc, ok := classify(c.pass, call)
		if !ok || !pc.release || len(call.Args) == 0 {
			return
		}
		arg := call.Args[0]
		partial := false
		if se, ok := arg.(*ast.SliceExpr); ok {
			// Put(v[a:b]) releases part of a slice table: the variable
			// as a whole is neither held nor released afterwards.
			arg = se.X
			partial = true
		}
		id, ok := arg.(*ast.Ident)
		if !ok {
			return
		}
		obj := identObj(c.pass, id)
		if obj == nil || c.vars[obj] == nil {
			return
		}
		if partial {
			st[obj] = stMaybe
		} else {
			st[obj] = stReleased
		}
	})
}

// checkUses reports definite uses-after-release inside expr.
func (c *checker) checkUses(expr ast.Expr, st state) {
	if expr == nil {
		return
	}
	inspectNoFuncLit(expr, func(n ast.Node) {
		id, ok := n.(*ast.Ident)
		if !ok {
			return
		}
		obj := c.pass.TypesInfo.Uses[id]
		t := c.vars[obj]
		if t == nil || st[obj] != stReleased {
			return
		}
		if c.reported[id.Pos()] || c.ann.At(id.Pos(), "pool-ok") {
			return
		}
		c.reported[id.Pos()] = true
		c.pass.Reportf(id.Pos(), "use of %s after it was returned to the pool with bufpool.%s (sanction with //eplog:pool-ok)",
			id.Name, t.putName)
	})
}

// checkExit reports buffers that are definitely still held when control
// leaves the function at pos.
func (c *checker) checkExit(pos token.Pos, st state) {
	for obj, t := range c.vars {
		// A variable absent from the state has not been acquired on this
		// path (stHeld is the zero value, so test presence explicitly).
		if s, seen := st[obj]; t.escaped || t.deferred || !seen || s != stHeld {
			continue
		}
		if c.reported[pos+token.Pos(obj.Pos())] || c.ann.At(pos, "pool-ok") || c.ann.At(t.getPos, "pool-ok") {
			continue
		}
		c.reported[pos+token.Pos(obj.Pos())] = true
		c.pass.Reportf(pos, "%s leaks a pool buffer on this path: acquired at %s but not released with bufpool.%s (sanction with //eplog:pool-ok)",
			obj.Name(), c.pass.Fset.Position(t.getPos), t.putName)
	}
}

func identObj(pass *analysis.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

func (c *checker) isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// --- small AST helpers ------------------------------------------------

// inspectNoFuncLit visits n's tree but does not descend into function
// literals (their bodies are analyzed as separate functions).
func inspectNoFuncLit(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			f(n)
		}
		return true
	})
}

// inspectAll visits the full tree, including function literals.
func inspectAll(n ast.Node, f func(ast.Node)) {
	ast.Inspect(n, func(n ast.Node) bool {
		if n != nil {
			f(n)
		}
		return true
	})
}

// parentMap records each node's syntactic parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
