package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestRun checks the demo's shape: the live fleet grew from one point to
// at least two, and GRUB-SIM grew its fleet until the mean response fell
// under the response bound. How far the live fleet grows is timing on a
// Scaled clock, so no count is pinned.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	grew := regexp.MustCompile(`fleet grew 1 -> (\d+) decision points`).FindStringSubmatch(out)
	if grew == nil {
		t.Fatalf("no fleet growth line in:\n%s", out)
	}
	if n, _ := strconv.Atoi(grew[1]); n < 2 {
		t.Errorf("the live fleet ended at %d points, want at least 2:\n%s", n, out)
	}
	bound := regexp.MustCompile(`response bound (\S+)\n`).FindStringSubmatch(out)
	conv := regexp.MustCompile(`converged at (\d+) decision points: .* mean response (\S+)\n`).FindStringSubmatch(out)
	if bound == nil || conv == nil {
		t.Fatalf("no GRUB-SIM bound or convergence line in:\n%s", out)
	}
	n, _ := strconv.Atoi(conv[1])
	mean, err1 := time.ParseDuration(conv[2])
	limit, err2 := time.ParseDuration(bound[1])
	if err1 != nil || err2 != nil || n < 2 || mean > limit {
		t.Errorf("GRUB-SIM ended at %d points with mean response %s, want at least 2 and at most %s:\n%s", n, conv[2], bound[1], out)
	}
}
