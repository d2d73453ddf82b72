package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every result file: two files are comparable only
// when these agree.
type environment struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	Kernel    string  `json:"kernel"`
	CPUModel  string  `json:"cpu_model"`
	NProc     int     `json:"nproc"`
	ScratchFS string  `json:"scratch_fs"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Quick     bool    `json:"quick"`
	// GOMAXPROCS of the benchmark process (which plays the compute node)
	// and of the daemons, which inherit the environment and so default to
	// nproc unless GOMAXPROCS is exported.
	GOMAXPROCS       int    `json:"gomaxprocs"`
	DaemonGOMAXPROCS string `json:"daemon_gomaxprocs"`
	Note             string `json:"note"`
}

const envNote = "all traffic crossed loopback TCP between real processes on one machine and every read was served " +
	"from the OS page cache: latencies are this sandbox's, not a network's or a device's; publication fsyncs hit the scratch filesystem"

func recordEnvironment(cfg *config) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Quick: cfg.quick,
		GOMAXPROCS: runtime.GOMAXPROCS(0), DaemonGOMAXPROCS: "default (nproc)", Note: envNote,
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		env.DaemonGOMAXPROCS = v
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = cfg.root
	if out, err := git.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(filepath.Join(cfg.root, buildDirName), &st); err == nil {
		names := map[int64]string{0xEF53: "ext2/3/4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs", 0x9123683E: "btrfs"}
		if n, ok := names[int64(st.Type)]; ok {
			env.ScratchFS = n
		} else {
			env.ScratchFS = fmt.Sprintf("0x%x", st.Type)
		}
	}
	return env
}
