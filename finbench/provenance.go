package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// benchDirs are the checkout's directories that are not the program: this
// benchmark and its build output.
var benchDirs = map[string]bool{".git": true, ".bench_build": true, "finbench": true}

// programGoFiles lists the program's non-test Go files under the current
// directory, sorted.
func programGoFiles() []string {
	var files []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if benchDirs[path] {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return files
}

// nonTestGoLines counts the lines of the program's non-test Go files
// (ROADMAP aim 2 tracks it next to the performance numbers).
func nonTestGoLines() int {
	n := 0
	for _, f := range programGoFiles() {
		b, err := os.ReadFile(f)
		if err == nil {
			n += bytes.Count(b, []byte("\n"))
		}
	}
	return n
}

// sourceDigest identifies the measured program when no git revision is at
// hand: a SHA-256 over the paths and contents of its non-test Go files and
// go.mod.
func sourceDigest() string {
	h := sha256.New()
	for _, f := range append(programGoFiles(), "go.mod") {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f + "\x00"))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// gitRevision reads HEAD from .git when the checkout is a repository.
func gitRevision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

// cpuModel is the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// provenance is recorded beside every result.
func provenance(workload string, seed uint64, nproc int) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"cpu":           cpuModel(),
		"nproc":         nproc,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"git_rev":       gitRevision(),
		"source_sha256": sourceDigest(),
		"go_lines":      nonTestGoLines(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
	}
}
