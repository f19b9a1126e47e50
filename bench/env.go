package main

import (
	"runtime"
	"runtime/debug"
	"syscall"
)

// env records where a run was measured. Numbers from different boxes,
// CPU counts or commits are not comparable, so every report carries it.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	// Commit is the git revision the binary was built from ("unknown"
	// outside a git checkout); Modified marks uncommitted changes.
	Commit   string `json:"commit"`
	Modified bool   `json:"modified,omitempty"`
}

func currentEnv() env {
	e := env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

// peakRSSMB returns the process's peak resident set size in MB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
