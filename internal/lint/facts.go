package lint

// The whole-program facts layer. The original five analyzers are
// package-local: each invariant is visible inside one type-checked
// unit. The concurrency and determinism invariants of the parallel
// solver stack are not — whether a struct field must be accessed
// atomically depends on every access site in the module, and whether a
// function is transitively reachable from a deterministic-engine entry
// point depends on the module's call graph. So Run now works in two
// passes: pass 1 (CollectFacts) walks every loaded package once and
// records per-package facts into one merged Facts value; pass 2 runs
// the analyzers, with the module-wide analyzers (RunModule) consuming
// the merged facts and the package-local ones (Run) free to consult
// them too.
//
// Facts recorded:
//
//   - Field access sites: every selector access to a struct field,
//     classified as atomic (the `&x.f` argument of a sync/atomic call),
//     plain read, or plain write. Composite-literal keys are deliberately
//     not access sites: construction precedes publication, so
//     `&engine{incumbent: ...}` style initialization is exempt.
//   - Field annotations: `mpp:guardedby <mu>` on a struct field names
//     the sibling mutex that must be held around every access.
//   - The static call graph: one node per function declaration (keyed
//     by types.Func.FullName, which is stable across the library-unit /
//     analysis-unit split), edges for every statically resolvable call.
//     Interface dispatch and calls through function values are not
//     resolvable and produce no edge — a documented soundness limit.
//   - Determinism violations per function (map ranges, time.Now,
//     math/rand calls, multi-receive selects) and `//mpp:deterministic`
//     root markers, consumed by detcheck's reachability pass.
//
// Identity across type-checking units: the loader parses each file
// exactly once (parseDir memoizes), so the library unit and the
// library+test analysis unit share ast.File pointers and token.Pos
// values. Field objects are therefore keyed by declaration position and
// functions by FullName — both stable however a reference resolves.

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// Directives recognized by the facts layer (a space after `//` is
// tolerated; `//mpp:hotpath` keeps its exact-match rule in hotalloc).
const (
	detRootDirective = "mpp:deterministic"
	guardedDirective = "mpp:guardedby"
	lockedDirective  = "mpp:locked"
)

// directiveArgs scans a comment group for `//mpp:<name>` (or
// `// mpp:<name>`) and returns its argument string.
func directiveArgs(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == name {
			return "", true
		}
		if rest, ok := strings.CutPrefix(text, name+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// AccessKind classifies one field access site.
type AccessKind uint8

const (
	// AccessRead is a plain (non-atomic) read of the field.
	AccessRead AccessKind = iota
	// AccessWrite is a plain write: assignment target, IncDec, or the
	// operand of a non-atomic address-of.
	AccessWrite
	// AccessAtomic is an access through a sync/atomic call taking &x.f.
	AccessAtomic
)

// FieldSite is one recorded access to a struct field.
type FieldSite struct {
	Pkg  *Package
	Pos  token.Pos
	Kind AccessKind
	Test bool // site lies in a _test.go file
}

// FieldFact aggregates everything known about one struct field,
// module-wide. Keyed by the field identifier's declaration position.
type FieldFact struct {
	Name      string // "struct.field" for messages
	DeclPkg   *Package
	DeclPos   token.Pos
	GuardedBy string // mutex field name from mpp:guardedby, "" if none
	// GuardKnown reports whether GuardedBy names a sibling field of a
	// sync mutex type; lockguard reports annotations where it is false.
	GuardKnown bool
	Atomic     int // number of AccessAtomic sites
	Sites      []FieldSite
}

// DetViolation is one determinism hazard inside a function body.
type DetViolation struct {
	Pos token.Pos
	Msg string // e.g. "ranges over a map", "calls time.Now"
}

// FuncFact is one call-graph node: a function declaration with its
// statically resolved callees and its determinism hazards.
type FuncFact struct {
	Key     string // types.Func.FullName()
	Display string // short human name, e.g. "(*engine).runAsync"
	Pkg     *Package
	Decl    *ast.FuncDecl
	DetRoot bool // carries //mpp:deterministic
	Callees []string
	Det     []DetViolation
}

// Facts is the merged whole-program fact set for one Run invocation.
type Facts struct {
	Fields map[token.Pos]*FieldFact
	Funcs  map[string]*FuncFact
}

// CollectFacts runs pass 1 over every package.
func CollectFacts(pkgs []*Package) *Facts {
	f := &Facts{
		Fields: make(map[token.Pos]*FieldFact),
		Funcs:  make(map[string]*FuncFact),
	}
	for _, pkg := range pkgs {
		f.collectStructs(pkg)
	}
	for _, pkg := range pkgs {
		f.collectAccesses(pkg)
		f.collectFuncs(pkg)
	}
	return f
}

// collectStructs registers every field of every named struct type, with
// its mpp:guardedby annotation when present.
func (f *Facts) collectStructs(pkg *Package) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			mutexes := mutexFieldNames(pkg.Info, st)
			for _, field := range st.Fields.List {
				guard, hasGuard := directiveArgs(field.Doc, guardedDirective)
				if !hasGuard {
					guard, hasGuard = directiveArgs(field.Comment, guardedDirective)
				}
				for _, name := range field.Names {
					ff := f.fieldAt(name.Pos())
					ff.Name = ts.Name.Name + "." + name.Name
					ff.DeclPkg = pkg
					if hasGuard {
						ff.GuardedBy = guard
						ff.GuardKnown = mutexes[guard]
					}
				}
			}
			return true
		})
	}
}

// mutexFieldNames returns the names of st's fields whose type is a sync
// mutex (sync.Mutex or sync.RWMutex).
func mutexFieldNames(info *types.Info, st *ast.StructType) map[string]bool {
	out := make(map[string]bool)
	for _, field := range st.Fields.List {
		t := info.TypeOf(field.Type)
		if t == nil || !isSyncMutex(t) {
			continue
		}
		for _, name := range field.Names {
			out[name.Name] = true
		}
	}
	return out
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex.
func isSyncMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// fieldAt returns (creating if needed) the fact for the field declared
// at pos.
func (f *Facts) fieldAt(pos token.Pos) *FieldFact {
	ff, ok := f.Fields[pos]
	if !ok {
		ff = &FieldFact{DeclPos: pos}
		f.Fields[pos] = ff
	}
	return ff
}

// collectAccesses records every selector access to a struct field in
// pkg, classified atomic / read / write. Composite-literal keys never
// appear as selectors, so initialization is exempt by construction.
func (f *Facts) collectAccesses(pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		inTest := strings.HasSuffix(pkg.Fset.Position(file.Pos()).Filename, "_test.go")
		par := parents(file)
		atomicSel := atomicArgSelectors(info, file)
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || !obj.IsField() {
				return true
			}
			ff := f.fieldAt(obj.Pos())
			if ff.Name == "" {
				ff.Name = obj.Name() // field of an unregistered (e.g. external) struct
			}
			kind := AccessRead
			switch {
			case atomicSel[sel]:
				kind = AccessAtomic
				ff.Atomic++
			case isWriteTarget(par, sel):
				kind = AccessWrite
			}
			ff.Sites = append(ff.Sites, FieldSite{Pkg: pkg, Pos: sel.Sel.Pos(), Kind: kind, Test: inTest})
			return true
		})
	}
}

// atomicArgSelectors finds every SelectorExpr appearing as `&x.f` inside
// a call to a sync/atomic function — those accesses are atomic.
func atomicArgSelectors(info *types.Info, file *ast.File) map[*ast.SelectorExpr]bool {
	marked := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isAtomicCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			un, ok := arg.(*ast.UnaryExpr)
			if !ok || un.Op != token.AND {
				continue
			}
			if sel, ok := un.X.(*ast.SelectorExpr); ok {
				marked[sel] = true
			}
		}
		return true
	})
	return marked
}

// isAtomicCall reports whether call invokes a function of sync/atomic.
func isAtomicCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isWriteTarget reports whether sel is written: the target of an
// assignment or IncDec, or the operand of a (non-atomic) address-of —
// once the address escapes, any write through it is out of sight, so
// taking it counts as one.
func isWriteTarget(par map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	switch p := par[sel].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(sel) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == ast.Expr(sel)
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// collectFuncs records one call-graph node per function declaration.
func (f *Facts) collectFuncs(pkg *Package) {
	info := pkg.Info
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			_, isRoot := directiveArgs(fd.Doc, detRootDirective)
			fact := &FuncFact{
				Key:     fn.FullName(),
				Display: funcDisplayName(fd),
				Pkg:     pkg,
				Decl:    fd,
				DetRoot: isRoot,
			}
			collectBody(info, fd.Body, fact)
			f.Funcs[fact.Key] = fact
		}
	}
}

// collectBody walks one function body for call edges and determinism
// hazards. Function literals nested in the body are attributed to the
// enclosing declaration: a violation inside a worker closure is the
// spawner's violation.
func collectBody(info *types.Info, body *ast.BlockStmt, fact *FuncFact) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			if v := bannedCall(fn); v != "" {
				fact.Det = append(fact.Det, DetViolation{Pos: n.Pos(), Msg: "calls " + v})
				return true
			}
			fact.Callees = append(fact.Callees, fn.FullName())
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					fact.Det = append(fact.Det, DetViolation{Pos: n.Pos(), Msg: "ranges over a map"})
				}
			}
		case *ast.SelectStmt:
			if c := resultCarryingCases(n); c >= 2 {
				fact.Det = append(fact.Det, DetViolation{
					Pos: n.Pos(),
					Msg: "selects over " + itoa(c) + " result-carrying channels",
				})
			}
		}
		return true
	})
}

// calleeFunc statically resolves a call's target function, or nil for
// dynamic calls (function values, interface methods resolve to the
// interface's method object, which has no body in the graph and simply
// dangles — a documented limitation).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// bannedCall names the determinism hazard a stdlib callee represents,
// or "" for harmless calls.
func bannedCall(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Now" {
			return "time.Now"
		}
	case "math/rand", "math/rand/v2":
		return pkg.Path() + "." + fn.Name()
	}
	return ""
}

// resultCarryingCases counts select cases that receive a value into a
// variable — the scheduling-dependent kind. Pure synchronization
// receives (`<-done`) and sends do not count.
func resultCarryingCases(sel *ast.SelectStmt) int {
	n := 0
	for _, clause := range sel.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		if as, ok := cc.Comm.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			if un, ok := as.Rhs[0].(*ast.UnaryExpr); ok && un.Op == token.ARROW {
				n++
			}
		}
	}
	return n
}

// funcDisplayName renders a short human-readable name for a function
// declaration: "name" or "(recv).name".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var buf bytes.Buffer
	buf.WriteByte('(')
	printer.Fprint(&buf, token.NewFileSet(), fd.Recv.List[0].Type)
	buf.WriteString(").")
	buf.WriteString(fd.Name.Name)
	return buf.String()
}

// exprPath renders a selector/identifier chain ("e", "s.eng") for
// matching guarded-field roots against mutex lock receivers. Any other
// expression shape yields "", which never matches — conservative.
func exprPath(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprPath(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprPath(e.X)
	}
	return ""
}

// itoa is strconv.Itoa for tiny non-negative ints, avoiding an import
// for one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
