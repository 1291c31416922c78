package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CodecBounds flags reads of input-derived byte slices that no length
// check dominates — the hand-rolled-decoder panic class.
//
// This is the shape behind PR 4's corrupt-frame disconnects: the inbound
// tcpnet frame path indexed attacker-controlled bytes with no bounds
// guard, so a short or hostile frame panicked the replica instead of
// dropping the connection. Every decoder in the tree — wire frames, WAL
// records, snapshots, evidence — now reads through one cursor,
// types.Reader, which walks explicit offsets into a []byte and stays safe
// only because every read sits behind a length guard. This analyzer
// mechanizes that discipline.
//
// For every function, the input set is its []byte parameters, []byte
// fields reached through the method receiver (r.buf in a decoder struct),
// and locals aliased from either. Every index or slice expression over an
// input must be DOMINATED on the CFG by a node that reads len() of the
// same slice — a bounds comparison, a loop condition, or a `range` head
// over it. A len() in the same node as the read (b[len(b)-1], short-
// circuited guards) counts. Reads inside closures are skipped: the CFG is
// per-function, and no decoder here parses from a callback.
//
// The guard is shape-checked, not value-checked: the analyzer demands a
// length test exist and execute first, not that its arithmetic be right —
// fuzzing owns the arithmetic (FuzzDecodeRecord, FuzzFrameRead), this
// analyzer owns "there is a test at all", which is exactly the invariant
// the PR 4 bug violated.
var CodecBounds = &Analyzer{
	Name: "codecbounds",
	Doc: "flags index/slice reads of input-derived []byte not dominated by " +
		"a len() check of the same slice",
	Run: runCodecBounds,
}

func runCodecBounds(pass *Pass) (interface{}, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCodecBounds(pass, fd)
		}
	}
	return nil, nil
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

func checkCodecBounds(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// The input set: []byte params and locals aliased from inputs, by
	// object; receiver-rooted []byte selector paths, by rendered text.
	inputObjs := map[types.Object]bool{}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isByteSlice(obj.Type()) {
				inputObjs[obj] = true
			}
		}
	}
	recv := receiverObj(info, fd)

	// inputKey canonicalizes an expression that denotes an input slice:
	// the object for plain identifiers, the rendered selector for
	// receiver-rooted fields ("r.buf"). Returns "" for non-inputs.
	var inputKey func(e ast.Expr) string
	inputKey = func(e ast.Expr) string {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && inputObjs[obj] {
				return x.Name
			}
		case *ast.SelectorExpr:
			t := info.TypeOf(x)
			if t == nil || !isByteSlice(t) || recv == nil {
				return ""
			}
			if root := rootIdent(x); root != nil && info.Uses[root] == recv {
				return types.ExprString(x)
			}
		}
		return ""
	}

	// Aliases: p := buf, p := buf[i:], p := r.buf[off:] make p an input.
	// One forward pass suffices — decoders define before use.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || st.Tok != token.DEFINE || len(st.Lhs) != len(st.Rhs) {
			return true
		}
		for i, lhs := range st.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			src := ast.Unparen(st.Rhs[i])
			if sl, ok := src.(*ast.SliceExpr); ok {
				src = sl.X
			}
			if inputKey(src) == "" {
				continue
			}
			if obj := info.Defs[id]; obj != nil && isByteSlice(obj.Type()) {
				inputObjs[obj] = true
			}
		}
		return true
	})

	// Closure bodies run at some other time; the per-function CFG can
	// neither order their reads nor trust their guards. Both walks below
	// skip anything inside a FuncLit.
	var lits []posRange
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, posRange{fl.Pos(), fl.End()})
		}
		return true
	})
	inLit := func(p token.Pos) bool {
		for _, r := range lits {
			if r.contains(p) {
				return true
			}
		}
		return false
	}

	// Guards: every len(<input>) occurrence and every `range <input>` head,
	// keyed like the reads.
	type guard struct {
		key string
		pos token.Pos
	}
	var guards []guard
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n != nil && inLit(n.Pos()) {
			return true
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if calleeName(x) == "len" && len(x.Args) == 1 {
				if k := inputKey(x.Args[0]); k != "" {
					guards = append(guards, guard{k, x.Pos()})
				}
			}
		case *ast.RangeStmt:
			if k := inputKey(x.X); k != "" {
				guards = append(guards, guard{k, x.X.Pos()})
			}
		}
		return true
	})

	// Reads: index and slice expressions over an input. A read is guarded
	// when a same-key guard shares its CFG node or dominates it.
	var cfg *CFG
	seen := map[token.Pos]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var target ast.Expr
		switch x := n.(type) {
		case *ast.IndexExpr:
			target = x.X
		case *ast.SliceExpr:
			target = x.X
		default:
			return true
		}
		key := inputKey(target)
		if key == "" || seen[n.Pos()] || inLit(n.Pos()) {
			return true
		}
		if cfg == nil {
			cfg = BuildCFG(fd.Body)
		}
		readLoc, ok := cfg.LocOf(n.Pos())
		if !ok {
			return true // statements the CFG does not model (dead code)
		}
		for _, g := range guards {
			if g.key != key {
				continue
			}
			gLoc, ok := cfg.LocOf(g.pos)
			if !ok {
				continue
			}
			if gLoc == readLoc || cfg.NodeDominates(g.pos, n.Pos()) {
				return true
			}
		}
		seen[n.Pos()] = true
		pass.Reportf(n.Pos(), "%s reads %s with no dominating len(%s) check; a short or hostile input panics here instead of erroring",
			fd.Name.Name, types.ExprString(n.(ast.Expr)), key)
		return true
	})
}
