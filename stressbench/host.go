package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// Stamp identifies the host and settings a record was measured with.
// Records whose stamps differ in anything but Seed are not comparable.
type Stamp struct {
	Host       string `json:"host"`
	HostCPUs   int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"pinned_workers"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	// WALFS is the filesystem type of the directory serve_fleet journals
	// into; fsync cost, and so edit latency, depends on it.
	WALFS string `json:"wal_fs"`
}

func newStamp(seed int64, walDir string) Stamp {
	return Stamp{
		Host:       hostname(),
		HostCPUs:   runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    pinnedWorkers(),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		WALFS:      fsType(walDir),
	}
}

// pinnedWorkers is the core.Options.Workers value every analyzer the
// benchmark builds uses, so a record does not silently follow a
// different default on another host.
func pinnedWorkers() int { return runtime.GOMAXPROCS(0) }

// comparable reports why two stamps may not be compared, or "" if they
// may.
func (s Stamp) comparable(o Stamp) string {
	switch {
	case s.Host != o.Host || s.HostCPUs != o.HostCPUs:
		return fmt.Sprintf("host %s/%d CPUs vs %s/%d CPUs", s.Host, s.HostCPUs, o.Host, o.HostCPUs)
	case s.GOMAXPROCS != o.GOMAXPROCS || s.Workers != o.Workers:
		return fmt.Sprintf("GOMAXPROCS/workers %d/%d vs %d/%d", s.GOMAXPROCS, s.Workers, o.GOMAXPROCS, o.Workers)
	case s.GoVersion != o.GoVersion:
		return fmt.Sprintf("Go %s vs %s", s.GoVersion, o.GoVersion)
	case s.WALFS != o.WALFS:
		return fmt.Sprintf("WAL filesystem %s vs %s", s.WALFS, o.WALFS)
	}
	return ""
}

func hostname() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Nodename))
	for _, c := range u.Nodename {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x01021994:
		return "tmpfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
