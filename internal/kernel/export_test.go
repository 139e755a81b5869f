package kernel

import "repro/internal/hw"

// SpinPollsPerCycle lets the external spin storm bound a refresh's charge.
const SpinPollsPerCycle = spinPollsPerCycle

// SyscallCountsByCPU returns the per-CPU call-count matrix: row i is CPU
// i's counts indexed by syscall number; the last row is the overflow slot
// for calls finishing with no CPU context. The conservation stress test
// sums this matrix against the driver's own issue counts.
func (s *System) SyscallCountsByCPU() [][]int64 {
	out := make([][]int64, len(s.sysacct))
	for i, a := range s.sysacct {
		row := make([]int64, NSys)
		for n := range row {
			row[n] = a.count[n].Load()
		}
		out[i] = row
	}
	return out
}

// StackTop returns the first address above this process's stack region.
func (c *Context) StackTop() hw.VAddr {
	if c.P.Stack != nil {
		return c.P.Stack.End()
	}
	return 0
}
