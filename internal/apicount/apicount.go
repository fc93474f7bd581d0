// Package apicount reproduces the methodology behind the paper's Table 2
// ("Implementation Complexity of Programming Models Using HAMSTER"): for
// each programming-model package it counts the lines of code implementing
// the model and the number of API calls exported, yielding lines-per-call.
//
// Per §5.2, "each count is computed by a simple script that first removes
// comments and empty lines, and then (to a certain degree) standardizes
// the coding style". This implementation does the same with a real parser:
// comments and blank lines are stripped, gofmt has already standardized
// style, and counting is done on the formatted, comment-free source.
// Exported functions and methods constitute the API calls.
package apicount

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Row is one model's complexity measurement.
type Row struct {
	Model    string
	Lines    int
	APICalls int
}

// linesPerCall returns the Table 2 ratio.
func (r Row) linesPerCall() float64 {
	if r.APICalls == 0 {
		return 0
	}
	return float64(r.Lines) / float64(r.APICalls)
}

// countPackage measures one package directory (non-test Go files).
func countPackage(dir string) (Row, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return Row{}, err
	}
	row := Row{Model: filepath.Base(dir)}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, 0) // comments dropped
		if err != nil {
			return Row{}, fmt.Errorf("apicount: %s: %w", path, err)
		}
		lines, calls, err := countFile(fset, f)
		if err != nil {
			return Row{}, err
		}
		row.Lines += lines
		row.APICalls += calls
	}
	return row, nil
}

func countFile(fset *token.FileSet, f *ast.File) (lines, calls int, err error) {
	// Re-print the comment-free AST in standard style, then count
	// non-blank lines: this is the "standardize the coding style" step.
	var b strings.Builder
	cfg := printer.Config{Mode: printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&b, fset, f); err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.TrimSpace(line) != "" {
			lines++
		}
	}
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		calls++
	}
	return lines, calls, nil
}

// CountModels measures every package directly under modelsDir, sorted by
// model name.
func CountModels(modelsDir string) ([]Row, error) {
	entries, err := os.ReadDir(modelsDir)
	if err != nil {
		return nil, err
	}
	var rows []Row
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		row, err := countPackage(filepath.Join(modelsDir, ent.Name()))
		if err != nil {
			return nil, err
		}
		if row.Lines > 0 {
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Model < rows[j].Model })
	return rows, nil
}

// Render formats rows as the paper's Table 2.
func Render(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %10s %12s\n", "Programming Model", "#Lines", "#APIcalls", "Lines/call")
	var totalLines, totalCalls int
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %8d %10d %12.1f\n", r.Model, r.Lines, r.APICalls, r.linesPerCall())
		totalLines += r.Lines
		totalCalls += r.APICalls
	}
	if totalCalls > 0 {
		fmt.Fprintf(&b, "%-28s %8d %10d %12.1f\n", "(all models)",
			totalLines, totalCalls, float64(totalLines)/float64(totalCalls))
	}
	return b.String()
}
