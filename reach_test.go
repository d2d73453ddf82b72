//go:build reach

package vmicache

// The reachability check: every non-test function in the module must be
// reached from some binary's main (every cmd/*, every examples/* and the
// end-to-end benchmark bench/e2e), or carry a reason in reachAllow. It asks
// the linker, which already computes reachability for dead-code
// elimination: each binary is built with inlining off (so no call vanishes
// into its caller) and -dumpdep (the linker prints every edge it follows),
// and a function whose symbol appears in no binary's edges is dead code.
// Interface methods the linker keeps by name count as reached.
//
// Run with `make reach` (go test -tags reach -run TestReach .).

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllow names the functions that no binary reaches but that stay, each
// with the reason. An entry matches a function of that name, or every
// method of a type of that name.
var reachAllow = map[string]string{
	"internal/backend.FaultyFile":          "fault-injecting test helper shared by the qcow, core and cachemgr tests; a _test.go file cannot share it across packages",
	"internal/backend.NewFaultyFile":       "constructor of the shared FaultyFile test helper",
	"internal/dedup.Build":                 "serial reference manifest builder: the oracle of TestBuildParallelByteIdentical and of the root BenchmarkDedupManifestBuildSerial",
	"internal/qcow.Tables.Mappings":        "the cachemgr tests read a published table set's mappings through it",
	"internal/rblock.RemoteStore.Remove":   "RemoteStore satisfies backend.Store, whose method set includes Remove; no binary removes through it",
	"internal/rblock.RemoteStore.Stat":     "RemoteStore satisfies backend.Store, whose method set includes Stat",
	"internal/boot.PatternSource.At":       "bench/e2e's test reads its expected bytes through it, and the benchmark's files change only with the benchmark",
	"internal/cachemgr.Manager.Invalidate": "dropping a cache whose base changed is open work (a cache must not outlive its base); the API stays until the daemon calls it",
	"vmicache.Disclosure":                  facadeReason,
	"vmicache.MinCacheQuota":               facadeReason,
	"vmicache.NewDirStore":                 facadeReason,
	"vmicache.NewTraceRecorder":            facadeReason,
	"vmicache.RunCloud":                    facadeReason,
	"vmicache.TransferCache":               facadeReason,
}

// facadeReason covers the root package's wrappers that no binary calls:
// which names the library facade offers is an open design question.
const facadeReason = "a library facade wrapper of an internal function; the facade's shape is still to be decided"

// reachBinaries returns the main packages whose reachability counts, as
// (directory to build in, package path) pairs.
func reachBinaries(t *testing.T) [][2]string {
	var bins [][2]string
	for _, pat := range []string{"cmd/*", "examples/*"} {
		dirs, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			bins = append(bins, [2]string{".", "./" + d})
		}
	}
	return append(bins, [2]string{"bench", "./e2e"})
}

// linkerReached builds one binary and returns every symbol on either side of
// a dependency edge the linker followed, with type arguments stripped.
func linkerReached(t *testing.T, dir, pkg, out string) map[string]bool {
	cmd := exec.Command("go", "build", "-o", out, "-gcflags=all=-l", "-ldflags=-dumpdep", pkg)
	cmd.Dir = dir
	b, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build %s in %s: %v\n%s", pkg, dir, err, tail(b))
	}
	reached := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		from, to, ok := strings.Cut(sc.Text(), " -> ")
		if !ok {
			continue
		}
		for _, s := range []string{from, to} {
			if i := strings.IndexByte(s, ' '); i >= 0 {
				s = s[:i] // "sym <attr>"
			}
			reached[stripTypeArgs(s)] = true
		}
	}
	return reached
}

func tail(b []byte) []byte {
	if len(b) > 4096 {
		return b[len(b)-4096:]
	}
	return b
}

// stripTypeArgs drops every bracketed segment, so a generic instantiation
// "p.F[go.shape.int]" or "p.(*T[go.shape.int]).M" names its declaration.
func stripTypeArgs(s string) string {
	if !strings.ContainsRune(s, '[') {
		return s
	}
	var out strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			out.WriteRune(r)
		}
	}
	return out.String()
}

// funcDecl is one non-test function: its display name (package directory,
// receiver type, name) and the linker symbols that reach it.
type funcDecl struct {
	name string
	pos  string
	syms []string
}

// moduleFuncs parses every non-test Go file of the module that builds on
// this platform (bench/ excluded: it is the benchmark, not the product) and
// returns its functions, init and main aside. A main package's symbols are
// keyed by its directory, since every binary calls its package "main".
func moduleFuncs(t *testing.T) []funcDecl {
	const modPath = "vmicache"
	var fns []funcDecl
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			n := d.Name()
			if path != "." && (strings.HasPrefix(n, ".") || n == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir, file := filepath.Split(path)
		if ok, err := build.Default.MatchFile(dir+".", file); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(filepath.Clean(dir))
		symPkg := modPath
		if rel != "." {
			symPkg = modPath + "/" + rel
		}
		display := rel
		if rel == "." {
			display = modPath
		}
		if f.Name.Name == "main" {
			symPkg = rel + ":main"
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || (f.Name.Name == "main" && fd.Name.Name == "main") {
				continue
			}
			fn := funcDecl{pos: fset.Position(fd.Pos()).String()}
			if fd.Recv == nil {
				fn.name = display + "." + fd.Name.Name
				fn.syms = []string{symPkg + "." + fd.Name.Name}
			} else {
				typ, ptr := recvType(fd.Recv.List[0].Type)
				fn.name = display + "." + typ + "." + fd.Name.Name
				fn.syms = []string{symPkg + ".(*" + typ + ")." + fd.Name.Name}
				if !ptr {
					fn.syms = append(fn.syms, symPkg+"."+typ+"."+fd.Name.Name)
				}
			}
			fns = append(fns, fn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

// recvType names a method's receiver type, generic parameters dropped, and
// says whether the receiver is a pointer.
func recvType(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	return e.(*ast.Ident).Name, ptr
}

func allowed(name string) (string, bool) {
	for entry := range reachAllow {
		if name == entry || strings.HasPrefix(name, entry+".") {
			return entry, true
		}
	}
	return "", false
}

func TestReach(t *testing.T) {
	out := t.TempDir()
	reached := map[string]bool{}
	for _, b := range reachBinaries(t) {
		dir, pkg := b[0], b[1]
		for s := range linkerReached(t, dir, pkg, filepath.Join(out, "bin")) {
			if name, ok := strings.CutPrefix(s, "main."); ok {
				// Key a main package's symbols by its directory.
				s = filepath.ToSlash(filepath.Clean(filepath.Join(dir, pkg))) + ":main." + name
			}
			reached[s] = true
		}
	}

	used := map[string]bool{}
	var dead []string
	for _, fn := range moduleFuncs(t) {
		hit := false
		for _, s := range fn.syms {
			hit = hit || reached[s]
		}
		if hit {
			continue
		}
		if entry, ok := allowed(fn.name); ok {
			used[entry] = true
			continue
		}
		dead = append(dead, fn.name+" ("+fn.pos+")")
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no binary reaches %s: delete it, move it to a _test.go file, or allow it with a reason", d)
	}
	// An entry that matches nothing unreached is stale: the function went,
	// or a binary now calls it.
	for entry := range reachAllow {
		if !used[entry] {
			t.Errorf("allowlist entry %s matches no unreached function: remove it", entry)
		}
	}
}
