package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is recorded with every result. Two results compare only when their
// class (everything but Commit) is equal: a different CPU count, CPU,
// GOMAXPROCS or toolchain changes timings for reasons the code does not.
type env struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the git commit when the checkout is a repository, else a
	// digest of the program's source files ("src:<sha256>").
	Commit string `json:"commit"`
}

func captureEnv(root string) env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commitOf(root),
	}
}

// class is the environment without the code identity.
func (e env) class() env {
	e.Commit = ""
	return e
}

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

// commitOf reads the checked-out commit from root/.git, falling back to a
// digest of the Go sources and module files outside the benchmark's own
// directory when root is not a git checkout.
func commitOf(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		name, isRef := strings.CutPrefix(ref, "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if sha, r, ok := strings.Cut(line, " "); ok && r == name {
					return sha
				}
			}
		}
	}
	return "src:" + sourceDigest(root)
}

func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// record is the file the benchmark writes for every run, so that two runs
// can be compared later (see compareRecords).
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Env      env                `json:"env"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
	Extra    map[string]any     `json:"extra,omitempty"`
}

func loadRecord(path string) (record, error) {
	var r record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareRecords prints each shared metric of two run records side by
// side. It refuses records from different environment classes, different
// workloads, or different run lengths, whose numbers do not compare.
func compareRecords(oldPath, newPath string) error {
	a, err := loadRecord(oldPath)
	if err != nil {
		return err
	}
	b, err := loadRecord(newPath)
	if err != nil {
		return err
	}
	if a.Env.class() != b.Env.class() {
		return fmt.Errorf("refusing to compare across environments:\n  %s: %+v\n  %s: %+v",
			oldPath, a.Env.class(), newPath, b.Env.class())
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare different runs: %s/%ds/trace=%v vs %s/%ds/trace=%v",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	fmt.Printf("workload %s  %s -> %s\n", a.Workload, a.Env.Commit, b.Env.Commit)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Metrics[n], b.Metrics[n]
		delta := "n/a"
		if x != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(y-x)/x)
		}
		fmt.Printf("  %-36s %14.6g %14.6g %9s\n", n, x, y, delta)
	}
	return nil
}
