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

// checkRetiredKnob sets knob to each value in turn and checks that it
// warns exactly once, naming the knob, the value, that it is retired and
// what runs instead (now).
func checkRetiredKnob(t *testing.T, knob, now string, values []string) {
	t.Helper()
	warns := captureEnvWarn(t)
	if n := warnRetiredKnobs(func(string) string { return "" }); n != 0 || len(*warns) != 0 {
		t.Fatalf("unset knobs warned: %d, %v", n, *warns)
	}
	for _, val := range values {
		*warns = (*warns)[:0]
		env := map[string]string{knob: val}
		if n := warnRetiredKnobs(func(name string) string { return env[name] }); n != 1 || len(*warns) != 1 {
			t.Fatalf("%s=%q: reported %d, warnings %v; want exactly one", knob, val, n, *warns)
		}
		w := (*warns)[0]
		if !strings.Contains(w, knob+`="`+val+`"`) || !strings.Contains(w, "retired") ||
			!strings.Contains(w, now) {
			t.Errorf("warning should name the knob, the value, that it is retired and %q; got %q", now, w)
		}
	}
}

// WINRS_EWM_KERNEL is retired: every value — the old valid set and typos
// alike — warns once and names the kernel that runs regardless.
func TestParseEWMModeWarnsOnUnknown(t *testing.T) {
	checkRetiredKnob(t, "WINRS_EWM_KERNEL", gemmKernelName,
		[]string{"auto", "block4", "block8", "fused", "dw1", "block-8"})
}

// WINRS_FP16_RESIDENT is retired: FP16 always runs on decoded operands.
func TestParseFP16ResidentWarnsOnUnknown(t *testing.T) {
	checkRetiredKnob(t, "WINRS_FP16_RESIDENT", "decoded", []string{"0", "1", "yes"})
}

// WINRS_GROUP_DISPATCH is retired: grouped plans always dispatch
// interleaved.
func TestParseGroupDispatchWarnsOnUnknown(t *testing.T) {
	checkRetiredKnob(t, "WINRS_GROUP_DISPATCH", "interleaved",
		[]string{"auto", "seq", "sequential", "interleaved", "interleave"})
}

// The retired-knob table holds exactly the three knobs above, and with all
// of them set each warns once.
func TestRetiredKnobsWarnOnce(t *testing.T) {
	const knobs = 3
	if len(retiredKnobs) != knobs {
		t.Fatalf("%d retired knobs in the table, want %d", len(retiredKnobs), knobs)
	}
	warns := captureEnvWarn(t)
	if n := warnRetiredKnobs(func(string) string { return "x" }); n != knobs || len(*warns) != knobs {
		t.Fatalf("all knobs set: reported %d, warnings %v", n, *warns)
	}
}
