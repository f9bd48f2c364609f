package core

import (
	"fmt"
	"strings"
	"testing"
)

// captureEnvWarn swaps the env-knob warning sink for the test's duration
// and returns the captured messages.
func captureEnvWarn(t *testing.T) *[]string {
	t.Helper()
	var got []string
	prev := envWarnf
	envWarnf = func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	}
	t.Cleanup(func() { envWarnf = prev })
	return &got
}

// WINRS_EWM_KERNEL is retired: unset stays silent, and every value — the
// old valid set and typos alike — warns exactly once, naming the knob, the
// value and the kernel that runs regardless.
func TestParseEWMModeWarnsOnUnknown(t *testing.T) {
	warns := captureEnvWarn(t)
	if warnRetiredEWMKnob("") || len(*warns) != 0 {
		t.Fatalf("unset knob warned: %v", *warns)
	}
	for i, val := range []string{"auto", "block4", "block8", "fused", "dw1", "block-8"} {
		if !warnRetiredEWMKnob(val) {
			t.Errorf("WINRS_EWM_KERNEL=%q not reported as retired", val)
		}
		if len(*warns) != i+1 {
			t.Fatalf("WINRS_EWM_KERNEL=%q: %d warnings so far, want %d", val, len(*warns), i+1)
		}
		w := (*warns)[i]
		if !strings.Contains(w, `"`+val+`"`) || !strings.Contains(w, "WINRS_EWM_KERNEL") ||
			!strings.Contains(w, "retired") || !strings.Contains(w, gemmKernelName) {
			t.Errorf("warning should name the knob, the value, that it is retired and the kernel; got %q", w)
		}
	}
}

// Same contract for WINRS_FP16_RESIDENT: only "0", "1" and empty are
// silent; anything else warns and keeps the default (on).
func TestParseFP16ResidentWarnsOnUnknown(t *testing.T) {
	warns := captureEnvWarn(t)
	for val, want := range map[string]bool{"": true, "1": true, "0": false} {
		if got := parseFP16Resident(val); got != want {
			t.Errorf("parseFP16Resident(%q) = %v, want %v", val, got, want)
		}
	}
	if len(*warns) != 0 {
		t.Fatalf("valid values warned: %v", *warns)
	}
	if got := parseFP16Resident("yes"); got != true {
		t.Error("unknown value should keep the default (resident on)")
	}
	if len(*warns) != 1 || !strings.Contains((*warns)[0], "WINRS_FP16_RESIDENT") ||
		!strings.Contains((*warns)[0], `"yes"`) {
		t.Fatalf("warning should name the knob and value; got %v", *warns)
	}
}
