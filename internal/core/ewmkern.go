package core

import (
	"fmt"
	"os"
)

// fp16Resident selects the decoded-operand FP16 mode: the Ŵ cache and the
// gathered operands stay in float32 form across filter units instead of
// round-tripping through the binary16 codec per use. Identical bits either
// way (binary16→float32 decode is exact); WINRS_FP16_RESIDENT=0 forces the
// legacy codec-per-unit path.
var fp16Resident = parseFP16Resident(os.Getenv("WINRS_FP16_RESIDENT"))

// envWarnf reports a malformed or retired environment knob; tests swap it
// to capture the diagnostics.
var envWarnf = func(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// WINRS_EWM_KERNEL used to force one of several EWM kernel tiers. The
// dense EWM now always runs the packed GEMM kernel, so the knob is read
// once at startup only to warn that it no longer does anything.
var _ = warnRetiredEWMKnob(os.Getenv("WINRS_EWM_KERNEL"))

// warnRetiredEWMKnob warns when WINRS_EWM_KERNEL is set and reports
// whether it did.
func warnRetiredEWMKnob(s string) bool {
	if s == "" {
		return false
	}
	envWarnf("winrs: WINRS_EWM_KERNEL=%q is retired and ignored; the dense EWM always runs %s", s, gemmKernelName)
	return true
}

// parseFP16Resident maps WINRS_FP16_RESIDENT to the decoded-operand flag:
// unset/"1" selects the resident mode, "0" the legacy codec-per-unit path.
// Anything else warns and keeps the default.
func parseFP16Resident(s string) bool {
	switch s {
	case "", "1":
		return true
	case "0":
		return false
	default:
		envWarnf("winrs: unrecognized WINRS_FP16_RESIDENT=%q; valid values are 0, 1 — using 1", s)
		return true
	}
}

// EWMKernel reports the EWM kernel the plan's units run — the per-plan
// attribution recorded by winrs-info and the bench JSON's ewm_kernel
// field: the packed GEMM kernel (gemmKernelName) for dense plans,
// "channel" for plans that take the channel pass, and the base rank-1
// panel for the legacy FP16 codec path.
func (c *Config) EWMKernel() string {
	switch {
	case c.ChannelPass():
		return "channel"
	case c.FP16 && !fp16Resident:
		return "block4x4+codec"
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
