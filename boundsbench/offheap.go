package main

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// offHeapBytes is the size of every offHeap mapping made so far, all
// of it resident.
var offHeapBytes int

// offHeap returns a zeroed slice of n Ts in memory mapped outside the
// Go heap, for the plan lists and the latency samples. On the heap they
// would be most of the live data, and the collector would pace
// boundsd's garbage against the benchmark's own bookkeeping instead of
// against the server's. Every page is written once here, so the
// mapping's share of the resident set is fixed from the start and
// peakRSSMiB can take it out exactly. The mapping lives as long as the
// process. T must hold no pointers.
func offHeap[T any](n int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero)) * n
	if size == 0 {
		return nil
	}
	size = (size + os.Getpagesize() - 1) / os.Getpagesize() * os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("mapping %d bytes for plans: %v", size, err))
	}
	for i := 0; i < len(mem); i += os.Getpagesize() {
		mem[i] = 0
	}
	offHeapBytes += len(mem)
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}
