package core

import (
	"fmt"
	"os"
)

// envWarnf reports a retired environment knob; tests swap it to capture
// the diagnostics.
var envWarnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// retiredKnobs lists the environment variables that used to force an
// alternative execution path. Every such path is gone, so each knob is
// read once at startup only to warn that it no longer does anything.
var retiredKnobs = []struct{ name, now string }{
	{"WINRS_EWM_KERNEL", "the dense EWM always runs " + gemmKernelName},
	{"WINRS_FP16_RESIDENT", "FP16 always runs on decoded float32 operands"},
	{"WINRS_GROUP_DISPATCH", "grouped plans always dispatch interleaved"},
}

var _ = warnRetiredKnobs(os.Getenv)

// warnRetiredKnobs warns once for every retired knob getenv reports as
// set and returns how many it found.
func warnRetiredKnobs(getenv func(string) string) int {
	n := 0
	for _, k := range retiredKnobs {
		if v := getenv(k.name); v != "" {
			envWarnf("winrs: %s=%q is retired and ignored; %s", k.name, v, k.now)
			n++
		}
	}
	return n
}

// EWMKernel reports the EWM kernel the plan's units run — the per-plan
// attribution recorded by winrs-info and the bench JSON's ewm_kernel
// field: the packed GEMM kernel (gemmKernelName) for dense plans and
// "channel" for plans that take the channel pass.
func (c *Config) EWMKernel() string {
	if c.ChannelPass() {
		return "channel"
	}
	return gemmKernelName
}

// UnitScratchBytes is the per-worker scratch one dense unit borrows: the
// padded accumulators, a chunk of X̂ panels, the Ŵ panels and the tile
// buffers (see denseUnit). It is pooled per worker, not workspace, so
// WorkspaceBytes does not count it. Channel-pass plans report 0 (their
// scratch is ChannelTileBytes).
func (c *Config) UnitScratchBytes() int64 {
	if c.ChannelPass() {
		return 0
	}
	e := c.exec() // grouped plans run the per-group operand shape
	var max int64
	for _, s := range e.Segments {
		if b := denseScratchBytes(e.Params, s); b > max {
			max = b
		}
	}
	return max
}
