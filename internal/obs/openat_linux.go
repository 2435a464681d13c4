package obs

import (
	"syscall"
	"unsafe"
)

// openat is openat(2) on name, which must end in its NUL terminator and
// hold no other. Unlike syscall.Open it takes the name as bytes the caller
// already has, so it allocates no C string.
func openat(dirfd int, name []byte, flags int, perm uint32) (int, error) {
	fd, _, errno := syscall.Syscall6(syscall.SYS_OPENAT, uintptr(dirfd), uintptr(unsafe.Pointer(&name[0])), uintptr(flags|syscall.O_LARGEFILE), uintptr(perm), 0, 0)
	if errno != 0 {
		return -1, errno
	}
	return int(fd), nil
}

// mkdirat is mkdirat(2) on name, NUL-terminated like openat's.
func mkdirat(dirfd int, name []byte, perm uint32) error {
	if _, _, errno := syscall.Syscall(syscall.SYS_MKDIRAT, uintptr(dirfd), uintptr(unsafe.Pointer(&name[0])), uintptr(perm)); errno != 0 {
		return errno
	}
	return nil
}
