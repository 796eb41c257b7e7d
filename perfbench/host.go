package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"unsafe"
)

// host is the fingerprint printed and recorded next to every result:
// figures are compared only between runs on the same kind of host.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the git commit when the checkout is a git work tree;
	// Tree hashes the Go sources and module files, so a checkout without
	// git history still identifies its code.
	Commit    string `json:"commit"`
	Tree      string `json:"tree"`
	ScratchFS string `json:"scratch_fs"`
	// Spread tells whether the scratch dir's subdirectories are placed
	// as top-level directories (see spreadDirs).
	Spread bool `json:"scratch_spread"`
}

func (h host) String() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s tree=%s scratch_fs=%s scratch_spread=%v",
		h.CPU, h.NumCPU, h.GOMAXPROCS, h.Go, h.Commit, h.Tree, h.ScratchFS, h.Spread)
}

func fingerprint(scratch string, spread bool) host {
	return host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     gitCommit("."),
		Tree:       treeHash("."),
		ScratchFS:  fsType(scratch),
		Spread:     spread,
	}
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

// gitCommit reads HEAD from the checkout's .git directory, following one
// symbolic ref through loose or packed refs; "none" outside a git tree.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if data, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(data))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "none"
}

// treeHash hashes the paths and contents of the checkout's .go, go.mod
// and go.sum files, skipping dot-directories (build outputs, .git).
func treeHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the file system holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// spreadDirs sets the top-directory flag (FS_TOPDIR_FL, chattr +T) on
// dir, so that ext4 places each directory created directly in it the way
// it places top-level directories: in a block group with free inodes to
// spare. Without it, every set-up's tree lands in the block group of the
// checkout's own directories; when that group is crowded (the Go build
// cache sits next to the scratch dir) or holds inodes freed in the last
// minutes (the previous run's scratch), each inode the program creates
// costs the allocator a search, and the same set-up took 40 ms in one
// directory and 140 ms in another. It reports whether the flag is set;
// file systems without the flag are left as they are.
func spreadDirs(dir string) bool {
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return false
	}
	defer f.Close()
	var flags int32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return false
	}
	flags |= topDir
	_, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags)))
	return e == 0
}
