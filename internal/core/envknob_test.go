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

// An unrecognized WINRS_EWM_KERNEL must fall back to auto loudly, listing
// the valid values — not silently, which hid typos like "block-8".
func TestParseEWMModeWarnsOnUnknown(t *testing.T) {
	warns := captureEnvWarn(t)
	for val, want := range map[string]ewmMode{
		"": ewmAuto, "auto": ewmAuto, "block4": ewmBlock4,
		"block8": ewmBlock8, "fused": ewmFused,
	} {
		if got := parseEWMMode(val); got != want {
			t.Errorf("parseEWMMode(%q) = %v, want %v", val, got, want)
		}
	}
	if len(*warns) != 0 {
		t.Fatalf("valid values warned: %v", *warns)
	}
	if got := parseEWMMode("block-8"); got != ewmAuto {
		t.Errorf("unknown value mapped to %v, want auto", got)
	}
	if len(*warns) != 1 ||
		!strings.Contains((*warns)[0], `"block-8"`) ||
		!strings.Contains((*warns)[0], "WINRS_EWM_KERNEL") ||
		!strings.Contains((*warns)[0], "block4") {
		t.Fatalf("warning should name the knob, the bad value and the valid set; got %v", *warns)
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
