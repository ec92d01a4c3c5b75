package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is what a number needs beside it to be compared later: the
// code, the toolchain, the machine and the load rules.
func environment(cfg runCfg) map[string]any {
	return map[string]any{
		"commit":               gitCommit(),
		"go_version":           runtime.Version(),
		"nproc":                runtime.NumCPU(),
		"generator_gomaxprocs": runtime.GOMAXPROCS(0),
		"generator_workers":    cfg.workers,
		"server_gomaxprocs":    serverGOMAXPROCS(),
		"cpu_model":            cpuModel(),
		"kernel":               firstLine("/proc/sys/kernel/osrelease"),
		"data_fs":              fsType(cfg.workDir),
		"seed":                 cfg.seed,
		"netsim_delay":         "0s",
		"yardstick_nominal_us": us(yardNominal),
		"in_process_server":    cfg.inProcess,
	}
}

// gitCommit names the code that ran. The driver's checkout is not a git
// repository, so the answer there is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// serverGOMAXPROCS is what the child process's Go runtime will pick: the
// GOMAXPROCS variable when set, all CPUs otherwise.
func serverGOMAXPROCS() any {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return v
	}
	return runtime.NumCPU()
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, from the mount table: the
// longest mount point that is a prefix of dir.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, kind := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, kind = mp, f[2]
		}
	}
	return kind
}
