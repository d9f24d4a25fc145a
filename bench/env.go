package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// environment is what a set of numbers was measured under. Results are
// only comparable when nproc, GOMAXPROCS, the CPU model and the Go
// version agree; load average and commit are recorded for the reader.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"loadavg"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func currentEnvironment(seed int64) environment {
	return environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		LoadAvg:    loadAvg(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
	}
}

// differs reports the first field on which two environments differ
// in a way that makes their timings incomparable, or "".
func (e environment) differs(o environment) string {
	switch {
	case e.NProc != o.NProc:
		return "nproc"
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return "GOMAXPROCS"
	case e.CPUModel != o.CPUModel:
		return "CPU model"
	case e.GoVersion != o.GoVersion:
		return "Go version"
	}
	return ""
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

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	fields := strings.Fields(string(data))
	if len(fields) < 3 {
		return "unknown"
	}
	return strings.Join(fields[:3], " ")
}

// commit is the VCS revision the binary was built from, "-dirty" when
// the tree had local changes, or "unknown" outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
