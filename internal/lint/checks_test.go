package lint

import (
	"go/token"
	"testing"
)

// parseSnippets parses in-memory files keyed by their path from the module
// root.
func parseSnippets(t *testing.T, srcs map[string]string) []*srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []*srcFile
	for rel, src := range srcs {
		f, err := parseFile(fset, rel, src)
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		files = append(files, f)
	}
	return files
}

// TestChecksCatchTheirViolation gives each check one snippet that breaks
// its invariant, which it must report, and one that keeps it, which it must
// pass, so a check that stopped matching fails here rather than passing on
// the tree.
func TestChecksCatchTheirViolation(t *testing.T) {
	for _, tc := range []struct {
		check     string
		path      string
		bad, good string
	}{
		{
			"fillfast-lock-free", "internal/vm/fillfast.go",
			"package vm\nfunc (r *Region) fill() { r.mu.Lock() }\n",
			"package vm\nfunc (r *Region) fill() { r.slots[0].Load() }\n",
		},
		{
			"fillfast-lock-free", "internal/vm/fillfast.go",
			"package vm\nimport \"sync\"\nvar once sync.Once\n",
			"package vm\nimport \"sync/atomic\"\nvar n atomic.Int64\n",
		},
		{
			"syscalls-no-panic", "internal/kernel/syscalls_vm.go",
			"package kernel\nfunc (c *Context) Mmap() { panic(\"no frames\") }\n",
			"package kernel\nfunc (c *Context) Exit() { panic(processExit{}) }\nfunc (c *Context) Exec() { panic(processExec{}) }\n",
		},
		{
			"spinwait-confined", "internal/workload/contend.go",
			"package workload\nfunc f(c *kernel.Context) { c.SpinWait32(0, nil) }\n",
			"package workload\nfunc f(m uspin.Mutex, c *kernel.Context) { m.Lock(c) }\n",
		},
		{
			"spinwait-confined", "examples/quickstart/main.go",
			"package main\nfunc f(c *kernel.Context) { c.SpinWaitBounded(0, nil, 8) }\n",
			"package main\nfunc f(c *kernel.Context) { c.Load32(0) }\n",
		},
		{
			"dupfrom-no-append", "internal/vm/space.go",
			"package vm\nfunc (img *Space) dupFrom(s *Space) { img.list = append(img.list, s.list...) }\n",
			"package vm\nfunc (img *Space) dupFrom(s *Space) { img.MapAt(s.list[0]) }\nfunc (s *Space) other() { s.list = append(s.list, nil) }\n",
		},
		{
			"duplazy-confined", "internal/kernel/syscalls_proc.go",
			"package kernel\nfunc f(r *vm.Region) { r.DupLazy(nil) }\n",
			"package kernel\nfunc f(s *vm.Space) { s.Dup(false) }\n",
		},
		{
			"duplazy-confined", "irix.go",
			"package irix\nfunc f(r *vm.Region) { r.DupLazy(nil) }\n",
			"package irix\nfunc f(s *vm.Space) { s.Dup(false) }\n",
		},
		{
			"ckpt-leaf", "internal/ckpt/image.go",
			"package ckpt\nimport \"repro/internal/hw\"\nvar _ hw.PFN\n",
			"package ckpt\nimport \"hash/crc32\"\nvar _ = crc32.IEEE\n",
		},
	} {
		var c check
		for _, k := range checks {
			if k.name == tc.check {
				c = k
			}
		}
		if c.name == "" {
			t.Fatalf("no check named %s", tc.check)
		}
		if !c.scope(tc.path) {
			t.Errorf("%s: %s is out of scope", tc.check, tc.path)
			continue
		}
		if got := runCheck(c, parseSnippets(t, map[string]string{tc.path: tc.bad})); len(got) == 0 {
			t.Errorf("%s: passed a violating %s:\n%s", tc.check, tc.path, tc.bad)
		}
		if got := runCheck(c, parseSnippets(t, map[string]string{tc.path: tc.good})); len(got) != 0 {
			t.Errorf("%s: reported a clean %s: %v", tc.check, tc.path, got)
		}
	}
}

func TestUncalledExportsCheck(t *testing.T) {
	lib := "package p\nfunc Used() {}\nfunc (T) Method() {}\nfunc Uncalled() {}\nfunc Excused() {}\nfunc unexported() {}\n"
	for _, tc := range []struct {
		name    string
		srcs    map[string]string
		allowed map[string]string
		want    []string
	}{
		{
			name: "an export only a test calls is reported",
			srcs: map[string]string{
				"internal/p/p.go":      lib,
				"internal/p/p_test.go": "package p\nfunc f() { Uncalled() }\n",
				"cmd/x/main.go":        "package main\nfunc main() { p.Used(); var t p.T; t.Method() }\n",
			},
			allowed: map[string]string{"p.Excused": "reason"},
			want:    []string{"internal/p/p.go:4: p.Uncalled is exported but no non-test file calls it; delete it, unexport it, move it into a _test.go file, or give it an allow-list line"},
		},
		{
			name: "bench/ and the declaring file count as callers",
			srcs: map[string]string{
				"internal/p/p.go": lib + "func g() { Uncalled() }\n",
				"bench/probes.go": "package main\nfunc f() { p.Used(); p.T{}.Method() }\n",
			},
			allowed: map[string]string{"p.Excused": "reason"},
		},
		{
			name: "an allow-list line naming nothing is reported",
			srcs: map[string]string{
				"internal/p/p.go": "package p\nfunc Used() {}\nfunc g() { Used() }\n",
			},
			allowed: map[string]string{"p.Gone": "reason"},
			want:    []string{"allow-list line p.Gone names no exported function of internal/"},
		},
		{
			name: "an allow-list line for a called function is reported",
			srcs: map[string]string{
				"internal/p/p.go": "package p\nfunc Used() {}\nfunc g() { Used() }\n",
			},
			allowed: map[string]string{"p.Used": "reason"},
			want:    []string{"internal/p/p.go:2: p.Used has a non-test caller; drop its allow-list line"},
		},
		{
			name: "exports outside internal/ are not checked",
			srcs: map[string]string{
				"irix.go": "package irix\nfunc Public() {}\n",
			},
		},
	} {
		got := uncalledExports(parseSnippets(t, tc.srcs), tc.allowed)
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %q, want %q", tc.name, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %q, want %q", tc.name, got[i], tc.want[i])
			}
		}
	}
}
