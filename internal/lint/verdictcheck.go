package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// VerdictCheck guards the three-valued anytime contract of the exact
// solvers: a search cut short by budget or deadline has answered neither
// yes nor no, so the caller must look at Status/Verdict (or hand the
// result to something that does) before trusting Cost or Feasible.
//
// For every call to a solver entry point (opt.ExactWith, opt.SolveCached,
// opt.ZeroIO, and their facade re-exports) the analyzer
// requires that the returned result is (a) not discarded — not an
// expression statement, not assigned to _ — and (b) consulted: at least
// one use of the result variable reads .Status or .Verdict, checks the
// paired error, or lets the value escape (passed to a call, returned,
// stored, compared), which conservatively counts as consultation.
// Reading only .Cost or .Feasible off a possibly-partial result is
// exactly the bug this analyzer exists to catch. The one accepted drop
// is the explicit `_, _ = call` (a warm-up or allocation probe), the
// same convention as poolcheck's `_ =`.
var VerdictCheck = &Analyzer{
	Name: "verdictcheck",
	Doc: "solver results must not be discarded, and their Status/Verdict " +
		"(or paired error) must be consulted before Cost/Feasible is trusted",
	Run: runVerdictCheck,
}

// verdictFuncs lists the functions whose results carry a Status/Verdict,
// keyed by defining package path.
var verdictFuncs = map[string]map[string]bool{
	"repro/internal/opt": {
		"ExactWith": true, "SolveCached": true, "ZeroIO": true,
	},
	"repro": {
		"ExactWith": true, "SolveCached": true, "ZeroIO": true,
	},
}

// consultedFields are the result fields whose read satisfies the
// contract.
var consultedFields = map[string]bool{"Status": true, "Verdict": true}

func runVerdictCheck(pass *Pass) error {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		par := parents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := solverCall(info, call)
			if !ok {
				return true
			}
			checkSolverCall(pass, info, par, call, name)
			return true
		})
	}
	return nil
}

// solverCall resolves call's callee and reports whether it is a tracked
// solver entry point.
func solverCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	obj := info.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	names, ok := verdictFuncs[obj.Pkg().Path()]
	if !ok || !names[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

func checkSolverCall(pass *Pass, info *types.Info, par map[ast.Node]ast.Node, call *ast.CallExpr, name string) {
	// Climb past parentheses to the node that consumes the call value.
	parent := par[ast.Node(call)]
	for {
		p, ok := parent.(*ast.ParenExpr)
		if !ok {
			break
		}
		parent = par[ast.Node(p)]
	}
	switch stmt := parent.(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s discarded: its Status/Verdict reports whether the search completed", name)
		return
	case *ast.AssignStmt:
		// res, err := solver(...) — the call must be the sole RHS.
		if len(stmt.Rhs) != 1 || removeParens(stmt.Rhs[0]) != ast.Expr(call) || len(stmt.Lhs) != 2 {
			return // call feeds a larger expression: escapes, fine
		}
		if stmt.Tok == token.ASSIGN && isBlank(stmt.Lhs[0]) && isBlank(stmt.Lhs[1]) {
			return // `_, _ = solver(...)`: an explicit, visible drop
		}
		checkResultVar(pass, info, par, call, stmt.Lhs[0], stmt.Lhs[1], name)
	case *ast.ValueSpec:
		if len(stmt.Values) != 1 || len(stmt.Names) != 2 {
			return
		}
		checkResultVar(pass, info, par, call, stmt.Names[0], stmt.Names[1], name)
	default:
		// Return statement, call argument, composite literal, …: the
		// result escapes to a consumer; conservatively fine.
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

func removeParens(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// checkResultVar inspects how the (result, error) pair bound from the
// solver call is used inside the enclosing function.
func checkResultVar(pass *Pass, info *types.Info, par map[ast.Node]ast.Node, call *ast.CallExpr, lhs, errLHS ast.Expr, name string) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return // stored through a selector/index: escapes, fine
	}
	if id.Name == "_" {
		pass.Reportf(call.Pos(), "result of %s assigned to _: its Status/Verdict reports whether the search completed", name)
		return
	}
	// A named error binding is necessarily used (or the package would not
	// compile), and the solvers return a non-nil error exactly when the
	// result is partial — checking err is consulting the status. The
	// strict Status/Verdict requirement bites when err is discarded.
	if errID, ok := errLHS.(*ast.Ident); ok && errID.Name != "_" {
		return
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id] // plain = assignment to an existing variable
	}
	if obj == nil {
		return
	}
	fd := enclosingFuncDecl(par, call)
	if fd == nil || fd.Body == nil {
		return
	}
	consulted := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if consulted {
			return false
		}
		use, ok := n.(*ast.Ident)
		if !ok || use == id || info.Uses[use] != obj {
			return true
		}
		sel, ok := par[ast.Node(use)].(*ast.SelectorExpr)
		if ok && sel.X == ast.Expr(use) {
			if consultedFields[sel.Sel.Name] {
				consulted = true
			}
			return true // other field reads alone do not consult
		}
		// Any non-selector use — passed as an argument, returned,
		// stored, compared against nil — hands the result to code we
		// do not see; count it as consulted.
		consulted = true
		return false
	})
	if !consulted {
		pass.Reportf(call.Pos(), "Status/Verdict of %s result %s never consulted and its error is discarded: a partial search answers neither yes nor no", name, id.Name)
	}
}
