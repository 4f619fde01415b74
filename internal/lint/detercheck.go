package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// detercheck flags code whose observable output depends on Go's
// randomized map iteration order — the failure mode that would silently
// corrupt Eq. 1 / Eq. 8 / Eq. 11 reproduction numbers (float addition
// is not associative, and result slices feed ranked output). Two
// patterns are flagged inside `for ... range m` where m is a map:
//
//   - append to a slice declared outside the loop, unless the enclosing
//     function later (lexically after the loop) passes that slice to a
//     sorting function (sortingFuncs); slices.Contains, sort.Search and
//     the other non-sorting calls of those packages do not count;
//   - direct output via the fmt print family, which emits lines in map
//     order.
//
// Writes keyed by the range variable (m2[k] = ...) are exempt: the
// resulting map content is order-independent.
type detercheck struct{}

func (detercheck) Name() string { return "detercheck" }
func (detercheck) Doc() string {
	return "no order-dependent appends or output inside range-over-map without a subsequent sort"
}

func (detercheck) Run(pkg *Package, report func(token.Pos, string)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sorts := collectSortCalls(pkg, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pkg.Info.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRangeBody(pkg, rs, sorts, report)
				return true
			})
		}
	}
}

// sortingFuncs are the sort and slices functions that reorder their
// argument: only a call to one of them after the loop fixes the order a
// map-ordered append produced.
var sortingFuncs = map[string]map[string]bool{
	"sort":   {"Sort": true, "Stable": true, "Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// sortCall records one sorting call and every object its arguments
// reference, so "was this slice sorted after the loop" is an
// object-identity question.
type sortCall struct {
	pos  token.Pos
	objs map[types.Object]bool
}

func collectSortCalls(pkg *Package, body *ast.BlockStmt) []sortCall {
	var out []sortCall
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A known package path means call.Fun is a package selector.
		fns := sortingFuncs[calleePackagePath(pkg, call)]
		if fns == nil || !fns[call.Fun.(*ast.SelectorExpr).Sel.Name] {
			return true
		}
		sc := sortCall{pos: call.Pos(), objs: map[types.Object]bool{}}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				switch mm := m.(type) {
				case *ast.Ident:
					if obj := pkg.Info.Uses[mm]; obj != nil {
						sc.objs[obj] = true
					}
				case *ast.SelectorExpr:
					if s := pkg.Info.Selections[mm]; s != nil {
						sc.objs[s.Obj()] = true
					}
				}
				return true
			})
		}
		out = append(out, sc)
		return true
	})
	return out
}

func checkMapRangeBody(pkg *Package, rs *ast.RangeStmt, sorts []sortCall, report func(token.Pos, string)) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range stmt.Rhs {
				if i >= len(stmt.Lhs) || !isAppendCall(pkg, rhs) {
					continue
				}
				target := stmt.Lhs[i]
				obj := assignTargetObject(pkg, target)
				if obj == nil {
					continue // indexed/map writes: content is order-independent
				}
				if declaredWithin(obj, rs) {
					continue // per-iteration scratch, consumed inside the loop
				}
				if sortedAfter(sorts, rs.End(), obj) {
					continue
				}
				report(stmt.Pos(), fmt.Sprintf(
					"append to %s while ranging over a map: element order depends on map iteration; sort %s afterwards or iterate sorted keys",
					obj.Name(), obj.Name()))
			}
		case *ast.CallExpr:
			if name := fmtPrintCall(pkg, stmt); name != "" {
				report(stmt.Pos(), fmt.Sprintf(
					"fmt.%s while ranging over a map: output order depends on map iteration; collect and sort first", name))
			}
		}
		return true
	})
}

// assignTargetObject resolves an append target to a stable object: the
// variable for an identifier, the struct field for a selector. Indexed
// targets (m[k], s[i]) return nil and are exempt.
func assignTargetObject(pkg *Package, e ast.Expr) types.Object {
	switch t := e.(type) {
	case *ast.Ident:
		if obj := pkg.Info.Uses[t]; obj != nil {
			return obj
		}
		return pkg.Info.Defs[t]
	case *ast.SelectorExpr:
		if s := pkg.Info.Selections[t]; s != nil {
			return s.Obj()
		}
	}
	return nil
}

func isAppendCall(pkg *Package, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// declaredWithin reports whether obj is declared inside the range
// statement itself (loop body or the key/value vars).
func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

// sortedAfter reports whether any collected sort call lexically after
// end references obj.
func sortedAfter(sorts []sortCall, end token.Pos, obj types.Object) bool {
	for _, sc := range sorts {
		if sc.pos >= end && sc.objs[obj] {
			return true
		}
	}
	return false
}

// fmtPrintCall returns the function name if call is one of fmt's
// printing functions (not Sprint*, which produce values rather than
// output), else "".
func fmtPrintCall(pkg *Package, call *ast.CallExpr) string {
	if calleePackagePath(pkg, call) != "fmt" {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch name := sel.Sel.Name; name {
	case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
		return name
	}
	return ""
}

// calleePackagePath returns the import path of the package whose
// function is being called, or "" for methods, builtins, and locals.
func calleePackagePath(pkg *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// Package-qualified call: X must be a package name.
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}
