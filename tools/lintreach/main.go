// Command lintreach fails when a function declared in a non-test file under
// internal/ is linked by no main of the module and is not named in
// tools/lintreach/allowlist.txt. Mains are built with inlining off, so a
// called function keeps a symbol of its own, which go tool nm lists. An
// allowlist line is a path.Match pattern over the names reported here (pkg.F
// or pkg.T.M), then why it is kept; a line without a reason, or matching no
// unlinked function, fails too. From the module root:
//
//	go run ./tools/lintreach
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	funcDecl = regexp.MustCompile(`^func (?:\((?:\w+ )?\*?(\w+)(?:\[[^\]]*\])?\) )?(\w+)`) // receiver type, name
	textSym  = regexp.MustCompile(`(?m) [Tt] hoyan/internal/(.*)$`)
	brackets = regexp.MustCompile(`\[[^\[\]]*\]`) // an innermost instantiation group; it may hold spaces
)

func main() {
	dir, err := os.MkdirTemp("", "lintreach")
	exitOn := func(err error) {
		if err != nil {
			os.RemoveAll(dir)
			fmt.Fprintln(os.Stderr, "lint-reach:", err)
			os.Exit(1)
		}
	}
	exitOn(err)
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", dir+"/", "./...")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	exitOn(build.Run())
	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	exitOn(err)
	nm, err := exec.Command("go", append([]string{"tool", "nm"}, bins...)...).Output()
	exitOn(err)
	os.RemoveAll(dir)
	linked := map[string]bool{} // as pkg.F or pkg.T.M: (*T).M counts as T.M
	for _, m := range textSym.FindAllStringSubmatch(string(nm), -1) {
		sym := m[1]
		for prev := ""; prev != sym; {
			prev, sym = sym, brackets.ReplaceAllString(sym, "")
		}
		linked[strings.NewReplacer("(*", "", ")", "").Replace(sym)] = true
	}

	var bad []string
	allow := map[string]bool{} // entry → it names an unlinked function
	text, err := os.ReadFile("tools/lintreach/allowlist.txt")
	exitOn(err)
	for _, line := range strings.Split(string(text), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(f[0], "#") {
			allow[f[0]] = false
			if len(f) == 1 {
				bad = append(bad, "allowlist entry "+f[0]+" gives no reason")
			}
		}
	}
	n := 0
	exitOn(filepath.WalkDir("internal", func(file string, _ os.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return err
		}
		src, err := os.ReadFile(file)
		for i, line := range strings.Split(string(src), "\n") {
			m := funcDecl.FindStringSubmatch(line)
			if m == nil || m[1] == "" && m[2] == "init" {
				continue
			}
			n++
			name := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(file)), "internal/") + "." + strings.TrimPrefix(m[1]+"."+m[2], ".")
			kept := linked[name]
			for entry := range allow {
				if ok, _ := path.Match(entry, name); ok { // a malformed pattern matches nothing: stale
					allow[entry], kept = allow[entry] || !linked[name], true
				}
			}
			if !kept {
				bad = append(bad, fmt.Sprintf("%s:%d: %s is linked by no main", file, i+1, name))
			}
		}
		return err
	}))
	for entry, used := range allow {
		if !used {
			bad = append(bad, "allowlist entry "+entry+" names no unlinked function")
		}
	}
	if len(bad) > 0 {
		exitOn(fmt.Errorf("%d findings over %d functions under internal/:\n%s", len(bad), n, strings.Join(bad, "\n")))
	}
	fmt.Printf("lint-reach: %d functions under internal/, each linked by a main or allowlisted\n", n)
}
