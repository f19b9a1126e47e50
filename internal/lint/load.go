package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed, type-checked compilation unit: the directory's
// library files plus its in-package _test.go files. An external foo_test
// package is not loaded: LoadDir refuses a directory that has one.
type Package struct {
	Path  string // import path, e.g. "repro/internal/opt"
	Name  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages of one module. Module-local
// imports resolve recursively through the loader itself; standard-library
// imports resolve through the stdlib source importer, so the whole
// pipeline needs nothing but GOROOT sources — no build cache, no export
// data, no third-party loader.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	std     types.ImporterFrom
	pkgs    map[string]*Package // library units (what importers see), by import path
	apkgs   map[string]*Package // analysis units (library + in-package tests)
	parsed  map[string]*dirFiles
	loading map[string]bool // cycle detection
}

// dirFiles caches one directory's parse, split into the library unit,
// in-package test files, and external-test-package files.
type dirFiles struct {
	lib, inTest, extTest []*ast.File
}

// NewLoader returns a loader rooted at the module containing dir (the
// nearest ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		std:        std,
		pkgs:       make(map[string]*Package),
		apkgs:      make(map[string]*Package),
		parsed:     make(map[string]*dirFiles),
		loading:    make(map[string]bool),
	}, nil
}

// findModuleRoot walks up from dir to the nearest directory with go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves one package pattern: "./..." (every package under the
// module root, skipping testdata), "dir/..." (every package under dir),
// or a single directory path. Directories without Go files are skipped
// silently in wildcard mode and rejected in single-directory mode.
func (l *Loader) Load(pattern string) ([]*Package, error) {
	switch {
	case pattern == "./..." || pattern == "...":
		return l.loadTree(l.ModuleRoot)
	case strings.HasSuffix(pattern, "/..."):
		return l.loadTree(strings.TrimSuffix(pattern, "/..."))
	default:
		pkg, err := l.LoadDir(pattern, "")
		if err != nil {
			return nil, err
		}
		return []*Package{pkg}, nil
	}
}

// loadTree loads every package in the directory tree rooted at dir.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped, matching the go tool's package-walking rules.
func (l *Loader) loadTree(dir string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(path)
		if err != nil {
			return err
		}
		if !hasGo {
			return nil
		}
		pkg, err := l.LoadDir(path, "")
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") {
			return true, nil
		}
	}
	return false, nil
}

// LoadDir parses and type-checks the package in dir for analysis: the
// library files plus in-package _test.go files in one unit, so analyzers
// see test code too. importPath overrides the computed path (used for
// testdata packages that live outside the module's package tree); pass
// "" to derive it from the module root.
//
// Importers of the package never see this unit — they resolve against
// the library-only unit (libUnit), matching go's semantics where test
// files exist only at the root of their own test binary. That split is
// what keeps mutually test-importing packages (opt's tests import
// hardness, hardness's tests import opt) from looking like a cycle.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if importPath == "" {
		importPath, err = l.importPathFor(abs)
		if err != nil {
			return nil, err
		}
	}
	if pkg, ok := l.apkgs[importPath]; ok {
		return pkg, nil
	}
	// Establish the library unit first: it validates the imports and is
	// what any dependent package (including our own test files' imports,
	// transitively) will resolve against.
	libPkg, err := l.libUnit(abs, importPath)
	if err != nil {
		return nil, err
	}
	df, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	// External foo_test files would need a third unit importing this
	// one. The repo keeps all tests in-package, so external test
	// packages are rejected loudly rather than silently skipped.
	if len(df.extTest) > 0 {
		return nil, fmt.Errorf("lint: %s has an external _test package (unsupported)", dir)
	}
	pkg := libPkg
	if len(df.inTest) > 0 {
		files := append(append([]*ast.File{}, df.lib...), df.inTest...)
		pkg, err = l.check(importPath, abs, files)
		if err != nil {
			return nil, err
		}
	}
	l.apkgs[importPath] = pkg
	return pkg, nil
}

// libUnit type-checks the library (non-test) files of the package in
// abs, memoized by import path. This is the unit importers resolve to.
func (l *Loader) libUnit(abs, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	df, err := l.parseDir(abs)
	if err != nil {
		return nil, err
	}
	if len(df.lib) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", abs)
	}
	pkg, err := l.check(importPath, abs, df.lib)
	if err != nil {
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// check runs the type checker over one unit of files.
func (l *Loader) check(importPath, abs string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: &loaderImporter{l: l}}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Name:  tpkg.Name(),
		Dir:   abs,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// importPathFor maps an absolute directory inside the module to its
// import path.
func (l *Loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", abs, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses every .go file in dir (cached), splitting the library
// unit from in-package test files and external-test-package files.
func (l *Loader) parseDir(dir string) (*dirFiles, error) {
	if df, ok := l.parsed[dir]; ok {
		return df, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	df := &dirFiles{}
	for _, n := range names {
		file, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case strings.HasSuffix(file.Name.Name, "_test"):
			df.extTest = append(df.extTest, file)
		case strings.HasSuffix(n, "_test.go"):
			df.inTest = append(df.inTest, file)
		default:
			df.lib = append(df.lib, file)
		}
	}
	l.parsed[dir] = df
	return df, nil
}

// loaderImporter adapts the loader to go/types: module-local paths
// recurse into LoadDir, everything else falls through to the stdlib
// source importer.
type loaderImporter struct {
	l *Loader
}

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	l := li.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		abs, err := filepath.Abs(filepath.Join(l.ModuleRoot, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		pkg, err := l.libUnit(abs, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}
