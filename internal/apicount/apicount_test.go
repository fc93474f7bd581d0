package apicount

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCountPackageStripsCommentsAndBlanks(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "m.go", `// Package m is a model.
package m

// Exported is an API call.
func Exported() int {
	// internal comment

	return 1
}

func unexported() {}

// Also counts methods.
type T struct{}

// M is another API call.
func (T) M() {}
`)
	row, err := countPackage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if row.APICalls != 2 {
		t.Fatalf("APICalls = %d, want 2 (Exported, M)", row.APICalls)
	}
	// package + func sig + return + close + func + type + method lines:
	// exact count depends on printing, but comments/blank lines must be gone.
	if row.Lines < 6 || row.Lines > 10 {
		t.Fatalf("Lines = %d, outside plausible comment-free range", row.Lines)
	}
	if row.linesPerCall() <= 0 {
		t.Fatal("linesPerCall must be positive")
	}
}

func TestCountPackageSkipsTests(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "m.go", "package m\n\nfunc A() {}\n")
	writeFile(t, dir, "m_test.go", "package m\n\nfunc TestA(t *testingT) {}\ntype testingT struct{}\nfunc B() {}\n")
	row, err := countPackage(dir)
	if err != nil {
		t.Fatal(err)
	}
	if row.APICalls != 1 {
		t.Fatalf("APICalls = %d, want 1 — test files must be excluded", row.APICalls)
	}
}

func TestCountModelsOnRealTree(t *testing.T) {
	rows, err := CountModels("../../models")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("found %d models, want 10 (the paper's nine plus the openmp extension)", len(rows))
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Model] = true
		if r.APICalls == 0 {
			t.Fatalf("model %s has no API calls", r.Model)
		}
		lpc := r.linesPerCall()
		if lpc < 1 || lpc > 40 {
			t.Fatalf("model %s lines/call = %.1f, outside the paper's plausible range", r.Model, lpc)
		}
	}
	for _, want := range []string{"spmd", "smpspmd", "anl", "treadmarks", "hlrc", "jiajia", "pthreads", "win32", "shmem", "openmp"} {
		if !names[want] {
			t.Fatalf("model %s missing from count", want)
		}
	}
	out := Render(rows)
	if !strings.Contains(out, "Lines/call") || !strings.Contains(out, "jiajia") {
		t.Fatalf("render incomplete:\n%s", out)
	}
}

func TestZeroCallRow(t *testing.T) {
	if (Row{Lines: 10}).linesPerCall() != 0 {
		t.Fatal("zero calls must yield zero ratio")
	}
}

func TestCountPackageMissingDir(t *testing.T) {
	if _, err := countPackage("/nonexistent/path"); err == nil {
		t.Fatal("expected error")
	}
}
