package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// allocpin.go — the alloc-pin analyzer, the static half of the
// AllocsPerRun zero-allocation pins. Functions annotated
//
//	//lint:alloc-free <reason naming the pin or hot path>
//
// in their doc comment promise no heap allocation per call. The
// analyzer asks the compiler directly: it runs `go build -gcflags=-m`
// over the module (the go command replays compiler diagnostics on
// build-cache hits, so repeat runs stay cheap) and reports every
// "escapes to heap" / "moved to heap" line inside an annotated body.
// A builtin append that grows its slice allocates without any such
// line, so every append call in an annotated body is reported too, as
// alloc.append, straight from the syntax tree. When the toolchain is
// unavailable or the build fails, annotated functions cannot be
// verified and a single alloc.driver finding says so rather than
// passing silently.

// analyzerAllocPin builds the alloc-pin analyzer.
func analyzerAllocPin() *Analyzer {
	return &Analyzer{Name: "alloc-pin", Run: runAllocPin}
}

// allocSpan is one annotated function's file/line extent.
type allocSpan struct {
	file       string // slash path relative to module root
	start, end int
	name       string
}

func runAllocPin(m *Module, opts Options, report func(Finding)) {
	var spans []allocSpan
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasAnnotation(m, fd, "alloc-free") {
					continue
				}
				start := m.Rel(m.Fset.Position(fd.Pos()))
				end := m.Fset.Position(fd.Body.End())
				spans = append(spans, allocSpan{
					file:  filepath.ToSlash(start.Filename),
					start: start.Line,
					end:   end.Line,
					name:  fd.Name.Name,
				})
				reportAppends(m, pkg, fd, report)
			}
		}
	}
	if len(spans) == 0 {
		return // nothing annotated, nothing to build
	}

	goBin, err := exec.LookPath("go")
	if err != nil {
		report(driverFinding("go toolchain not found in PATH — //lint:alloc-free functions were not verified"))
		return
	}
	cmd := exec.Command(goBin, "build", "-gcflags=-m", "./...")
	cmd.Dir = m.Root
	out, err := cmd.CombinedOutput()
	if err != nil {
		report(driverFinding(fmt.Sprintf("go build -gcflags=-m failed (%v): %s — //lint:alloc-free functions were not verified",
			err, firstLine(out))))
		return
	}

	seen := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		file, lineNo, col, msg, ok := parseEscapeLine(line)
		if !ok {
			continue
		}
		for _, sp := range spans {
			if file != sp.file || lineNo < sp.start || lineNo > sp.end {
				continue
			}
			key := file + ":" + strconv.Itoa(lineNo) + ":" + msg
			if seen[key] {
				continue
			}
			seen[key] = true
			report(Finding{
				Code: CodeAllocEscape, File: file, Line: lineNo, Col: col,
				Message: fmt.Sprintf("%s inside //lint:alloc-free %s — the annotated hot path allocates", msg, sp.name),
			})
			break
		}
	}
}

// reportAppends reports every call of the builtin append in fd's body.
func reportAppends(m *Module, pkg *Package, fd *ast.FuncDecl, report func(Finding)) {
	builtin := types.Universe.Lookup("append")
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && pkg.Info.Uses[id] == builtin {
				report(m.finding(CodeAllocAppend, call,
					"append inside //lint:alloc-free %s — it allocates whenever the slice grows", fd.Name.Name))
			}
		}
		return true
	})
}

// parseEscapeLine extracts file:line:col and the message from one
// compiler diagnostic, keeping only heap-escape verdicts ("x escapes to
// heap", "moved to heap: x") and dropping the rest of -m's output
// (inlining reports, "leaking param" annotations, which do not allocate
// at the annotated site).
func parseEscapeLine(line string) (file string, lineNo, col int, msg string, ok bool) {
	parts := strings.SplitN(strings.TrimSpace(line), ":", 4)
	if len(parts) != 4 {
		return "", 0, 0, "", false
	}
	msg = strings.TrimSpace(parts[3])
	if !strings.Contains(msg, "escapes to heap") && !strings.HasPrefix(msg, "moved to heap") {
		return "", 0, 0, "", false
	}
	lineNo, err1 := strconv.Atoi(parts[1])
	col, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || lineNo <= 0 {
		return "", 0, 0, "", false
	}
	file = filepath.ToSlash(strings.TrimPrefix(parts[0], "./"))
	return file, lineNo, col, msg, true
}

func driverFinding(msg string) Finding {
	return Finding{Code: CodeAllocDriver, File: "go.mod", Line: 1, Col: 1, Message: msg}
}

func firstLine(out []byte) string {
	s := strings.TrimSpace(string(out))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if s == "" {
		return "no output"
	}
	return s
}
