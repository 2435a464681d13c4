package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

// Env is the machine context stamped on every result: a figure without it
// cannot be compared with anything.
type Env struct {
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	Dir        string  `json:"dir"`
	Filesystem string  `json:"filesystem"`
}

// Filesystem magic numbers (statfs f_type) worth naming; anything else is
// printed in hex.
var fsNames = map[int64]string{
	0xef53:     "ext4",
	0x01021994: "tmpfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

// filesystemOf names the filesystem holding dir, which must exist.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return runtime.GOOS + " " + strings.TrimSpace(string(b))
}

// commit is the vcs revision the binary was built from, when the build
// had one to stamp (a checkout that is not a git repository has none).
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
	}
	return rev + dirty
}

// readEnv stamps the run. dir must exist.
func readEnv(cfg runConfig) Env {
	return Env{
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernelRelease(),
		Dir:        cfg.dir,
		Filesystem: filesystemOf(cfg.dir),
	}
}

func (e Env) print(w io.Writer) {
	fmt.Fprintf(w, "lokibench seed=%d seconds=%g scale=%g commit=%s %s nproc=%d GOMAXPROCS=%d kernel=%q dir=%s fs=%s\n",
		e.Seed, e.Seconds, e.Scale, e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Kernel, e.Dir, e.Filesystem)
	if e.Filesystem == "tmpfs" {
		fmt.Fprintf(os.Stderr, "lokibench: warning: %s is on tmpfs, where fsync is free: %s and %s measure no disk there\n",
			e.Dir, wlJournaledChaos, wlResumeReport)
	}
	if e.Scale != 1 {
		fmt.Fprintf(w, "lokibench: -scale %g: a smoke run, not comparable to default runs\n", e.Scale)
	}
}
