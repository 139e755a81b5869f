// Package lint holds the tree's structural invariants as tests over the
// syntax tree (go/parser, go/ast), so `go test ./...` enforces them: the
// compiler cannot, and a grep stops matching silently when the code it
// looked for changes shape. The package is test files only.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed Go file of the module.
type srcFile struct {
	rel  string // slash-separated path from the module root
	test bool
	ast  *ast.File
	fset *token.FileSet
}

func (f *srcFile) at(n ast.Node) string {
	return fmt.Sprintf("%s:%d", f.rel, f.fset.Position(n.Pos()).Line)
}

func parseFile(fset *token.FileSet, rel string, src any) (*srcFile, error) {
	af, err := parser.ParseFile(fset, rel, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	return &srcFile{rel: rel, test: strings.HasSuffix(rel, "_test.go"), ast: af, fset: fset}, nil
}

// loadTree parses every Go file under the module root, bench/ included
// (a module of its own, but a caller of internal/ all the same), leaving
// out directories the go tool ignores.
func loadTree(t *testing.T) []*srcFile {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*srcFile
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := parseFile(fset, filepath.ToSlash(rel), src)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no Go files found under the module root")
	}
	return files
}

// A check is one structural invariant: the files it scans and what it
// reports in one of them.
type check struct {
	name  string
	scope func(rel string) bool
	find  func(f *srcFile) []string
}

// checks are the invariants the compiler cannot hold, each with the reason
// it exists. Every scope takes test files too.
var checks = []check{
	// The resident-fault fast path stays lock-free: fillfast.go fills a
	// page the region already holds with atomic PTE and refcount
	// operations only. A mutex or any other sync primitive there would
	// serialize the concurrent faults §6.2's shared read lock admits;
	// slow cases belong in region.go.
	{
		name:  "fillfast-lock-free",
		scope: func(rel string) bool { return rel == "internal/vm/fillfast.go" },
		find: func(f *srcFile) (out []string) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" {
						out = append(out, f.at(n)+": sync."+n.Sel.Name+" on the lock-free fault fast path")
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok || len(n.Args) != 0 {
						break
					}
					switch sel.Sel.Name {
					case "Lock", "RLock", "Unlock", "RUnlock":
						out = append(out, f.at(n)+": ."+sel.Sel.Name+"() on the lock-free fault fast path")
					}
				}
				return true
			})
			return out
		},
	},
	// Exhaustion surfaces as an errno: a syscall body returns a *SysError
	// (ENOMEM, EAGAIN, EMFILE ...) and the gateway degrades it by policy. A
	// panic would take the whole simulated machine down. The two unwinds
	// exit(2) and exec(2) use are the only panics, and the gateway
	// recovers both.
	{
		name: "syscalls-no-panic",
		scope: func(rel string) bool {
			dir, base := filepath.Split(rel)
			return dir == "internal/kernel/" && strings.HasPrefix(base, "syscalls_") && strings.HasSuffix(base, ".go")
		},
		find: func(f *srcFile) (out []string) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "panic" {
					return true
				}
				if len(call.Args) == 1 {
					if lit, ok := call.Args[0].(*ast.CompositeLit); ok {
						if id, ok := lit.Type.(*ast.Ident); ok && (id.Name == "processExit" || id.Name == "processExec") {
							return true
						}
					}
				}
				out = append(out, f.at(call)+": panic in a syscall body; return a *SysError (only processExit{}/processExec{} may unwind)")
				return true
			})
			return out
		},
	},
	// User code spins only through uspin: its primitives spin a bounded
	// number of polls, then sleep in blockproc(2), and a caught signal
	// interrupts them. A raw SpinWait32/SpinWaitBounded elsewhere is an
	// unbounded, uninterruptible busy-wait under CPU oversubscription.
	{
		name: "spinwait-confined",
		scope: func(rel string) bool {
			return !strings.HasPrefix(rel, "internal/uspin/") && !strings.HasPrefix(rel, "internal/kernel/")
		},
		find: selectorsNamed("SpinWait32", "SpinWaitBounded"),
	},
	// A pregion list is an ordered interval index (sorted by base,
	// binary-searched) that only vm.Space holds. The child image of a Dup
	// is built through MapAt, which inserts in order and checks overlap;
	// an append in dupFrom would break the order the search relies on.
	{
		name:  "dupfrom-no-append",
		scope: func(rel string) bool { return rel == "internal/vm/space.go" },
		find: func(f *srcFile) (out []string) {
			for _, d := range f.ast.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "dupFrom" || recvType(fd) != "Space" || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
							out = append(out, f.at(call)+": append in Space.dupFrom; map the child image through MapAt so it stays ordered")
						}
					}
					return true
				})
			}
			return out
		},
	},
	// The O(1) creation protocol (DESIGN §16) keeps its moving part in
	// one place: the deferred duplication walk lives in internal/vm, and
	// kernel code clones whole images through Space.Dup, never region by
	// region with DupLazy. bench/ probes the walk's host cost directly and
	// is outside the scope.
	{
		name: "duplazy-confined",
		scope: func(rel string) bool {
			if strings.HasPrefix(rel, "internal/vm/") {
				return false
			}
			return strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/") ||
				strings.HasPrefix(rel, "examples/") || !strings.Contains(rel, "/")
		},
		find: selectorsNamed("DupLazy"),
	},
	// A checkpoint image is content-level state (DESIGN §17): internal/ckpt
	// is a leaf serialization layer that imports nothing of this module, so
	// it can never see a PTE word, a frame number or kernel state, and the
	// image cannot come to depend on frame placement. The kernel hands it
	// plain bytes through the vm page-read API.
	{
		name: "ckpt-leaf",
		scope: func(rel string) bool {
			return strings.HasPrefix(rel, "internal/ckpt/") && !strings.Contains(rel[len("internal/ckpt/"):], "/")
		},
		find: func(f *srcFile) (out []string) {
			for _, imp := range f.ast.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if path == "repro" || strings.HasPrefix(path, "repro/") {
					out = append(out, f.at(imp)+": internal/ckpt imports "+path+"; it must stay a leaf package")
				}
			}
			return out
		},
	},
}

// selectorsNamed reports every x.Name selector, called or not, for the
// given names.
func selectorsNamed(names ...string) func(f *srcFile) []string {
	return func(f *srcFile) (out []string) {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				for _, name := range names {
					if sel.Sel.Name == name {
						out = append(out, f.at(sel)+": ."+name+" outside the packages allowed to name it")
					}
				}
			}
			return true
		})
		return out
	}
}

// recvType is the receiver's type name of a method ("" for a function).
func recvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// runCheck applies c to every file in its scope.
func runCheck(c check, files []*srcFile) (out []string) {
	for _, f := range files {
		if c.scope(f.rel) {
			out = append(out, c.find(f)...)
		}
	}
	return out
}

func TestStructuralChecks(t *testing.T) {
	files := loadTree(t)
	for _, c := range checks {
		t.Run(c.name, func(t *testing.T) {
			scanned := 0
			for _, f := range files {
				if c.scope(f.rel) {
					scanned++
				}
			}
			if scanned == 0 {
				t.Fatal("no file in scope: the check no longer looks at anything")
			}
			for _, v := range runCheck(c, files) {
				t.Error(v)
			}
		})
	}
}

// exportedName is the allow-list key of an exported function or method
// declared in internal/: "pkg.Name" or "pkg.Recv.Name", pkg being the
// directory below internal/.
func exportedName(f *srcFile, fd *ast.FuncDecl) string {
	pkg := strings.TrimPrefix(filepath.Dir(f.rel), "internal/")
	if r := recvType(fd); r != "" {
		return pkg + "." + r + "." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}

// uncalledExports lists the exported functions and methods declared in
// non-test files under internal/ whose name no non-test file of the module
// uses, the declaration itself aside, and that allowed does not name. It
// also lists the allow-list keys that name a called function or no
// declaration at all, so the list cannot outlive what it excuses. Matching is by name, so a method
// counts as called when any method of that name is.
func uncalledExports(files []*srcFile, allowed map[string]string) (out []string) {
	named := map[string]bool{}
	type decl struct {
		key string
		at  string
	}
	var decls []decl
	for _, f := range files {
		if f.test {
			continue
		}
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(f.rel, "internal/") {
			for _, d := range f.ast.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					own[fd.Name] = true
					decls = append(decls, decl{exportedName(f, fd), f.at(fd)})
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		switch excused := allowed[d.key] != ""; {
		case !named[name] && !excused:
			out = append(out, d.at+": "+d.key+" is exported but no non-test file calls it; delete it, unexport it, move it into a _test.go file, or give it an allow-list line")
		case named[name] && excused:
			out = append(out, d.at+": "+d.key+" has a non-test caller; drop its allow-list line")
		}
	}
	for key := range allowed {
		if !declared[key] {
			out = append(out, "allow-list line "+key+" names no exported function of internal/")
		}
	}
	sort.Strings(out)
	return out
}

// exportAllowList excuses exported names that no non-test file calls, for
// one of three reasons only: errors' Unwrap interface; a call the paper or
// DESIGN §1/§7/§12/§16 names, kept as the API it describes; a seam another
// package's test needs, naming that test.
var exportAllowList = map[string]string{
	"kernel.FaultError.Unwrap": "errors.Is/As reach it through the Unwrap interface",
	"kernel.SysError.Unwrap":   "errors.Is/As reach it through the Unwrap interface",

	"kernel.Context.Chroot":          "DESIGN §1: PR_SDIR shares the root directory chroot(2) sets",
	"kernel.Context.Setuid":          "DESIGN §1: PR_SID shares the uid setuid(2) sets",
	"kernel.Context.Setgid":          "DESIGN §1: PR_SID shares the gid setgid(2) sets",
	"kernel.Context.Dup2":            "DESIGN §1, §16: PR_SFDS shares the descriptor dup2(2) installs",
	"kernel.Context.SetCloseOnExec":  "DESIGN §1: PR_SFDS shares descriptors with their close-on-exec flag",
	"kernel.Context.GetStackSize":    "DESIGN §1: prctl(PR_GETSTACKSIZE)",
	"kernel.Context.Setblockproccnt": "DESIGN §12: setblockproccnt(2), the paper's §3 sleep-wake call",
	"kernel.Context.Unshare":         "DESIGN §7: stop sharing, the paper's §8 future direction",
	"kernel.Context.SetGroupPrio":    "DESIGN §7: the group scheduling handle, the paper's §8 future direction",
	"kernel.Context.Exec":            "DESIGN §7: exec(2) leaves the share group",
	"kernel.Context.MmapPrivate":     "DESIGN §16: the private pregion list, the paper's §8 partial VM sharing",

	"faultinject.Plan.EnableLog": "seam: kernel TestFaultPlanDeterminism, TestFaultSeedChangesSequence, TestPollSleepChaosDeterminism",
	"faultinject.Plan.Log":       "seam: kernel TestFaultPlanDeterminism, TestFaultSeedChangesSequence, TestPollSleepChaosDeterminism",
	"ipc.PollRegistrations":      "seam: kernel TestPollLifetime",
	"klock.MRLock.Readers":       "seam: core TestResolveShared",
	"klock.MRLock.UpdateHeld":    "seam: kernel TestFaultInstallsWhereItResumes",
	"proc.Proc.BlockCnt":         "seam: kernel TestBlockprocErrnos, uspin TestKillBlockedWaiter",
}

func TestExportedNamesHaveCallers(t *testing.T) {
	for _, v := range uncalledExports(loadTree(t), exportAllowList) {
		t.Error(v)
	}
}
