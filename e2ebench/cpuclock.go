package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTime = 2

// cpuNow returns the CPU time the process has used so far, every thread,
// user and system. The benchmark times set-up, training and requests on
// this clock rather than on the wall clock: on a shared virtual machine
// the host runs other guests on the benchmark's vCPUs in spells
// ("steal"), which lengthen every wall-clock timing by tens of percent
// for minutes at a time, and the kernel leaves stolen time out of this
// clock. Serving runs one request at a time on one P, so a request's CPU
// time is its latency on a core of its own.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}
