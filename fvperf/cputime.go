package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// Linux system interfaces the benchmark relies on.
//
// The DES workloads and every set-up are timed in CPU time rather than
// wall time: on a shared host a vCPU can be descheduled for
// milliseconds, which wall time would charge to whatever was running.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU returns the calling thread's CPU time in ns. Callers lock
// their goroutine to its thread.
func threadCPU() int64 { return cpuClock(clockThreadCPU) }

// processCPU returns the CPU time of every thread of the process in ns.
func processCPU() int64 { return cpuClock(clockProcessCPU) }

func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // the clock exists on every Linux since 2.6.12
	}
	return ts.Nano()
}

// offHeap returns an empty slice with capacity for n values of T in
// anonymous memory outside the Go heap, and a function that releases
// it. The traced pass records spans and the classifier stream there: as
// heap objects they would grow the live heap several-fold and make the
// collector run less often than in the untraced pass it is compared
// with. T must hold no pointers.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %d bytes: %w", len(b), err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0], func() { _ = syscall.Munmap(b) }, nil
}
