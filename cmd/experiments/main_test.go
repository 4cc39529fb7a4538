package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunExitCodes drives the extracted run() through the flag/selection
// error surface (exit 2, message on stderr, no panic) and one fast success
// path (Table 1 on the smallest profile, heavily scaled down).
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
		wantStdout string
	}{
		{"bad flag", []string{"-bogus"}, 2, "flag provided but not defined", ""},
		{"flag help", []string{"-h"}, 0, "-table", ""},
		{"bad k list", []string{"-k", "2,zero"}, 2, "bad k", ""},
		{"zero k", []string{"-k", "0"}, 2, "bad k", ""},
		{"bad algorithm", []string{"-algo", "quantum"}, 2, "unknown algorithm", ""},
		{"unknown dataset", []string{"-datasets", "NoSuchProfile"}, 2, "unknown dataset", ""},
		{"bad table", []string{"-table", "9"}, 2, "-table must be 0-5", ""},
		{"negative scale", []string{"-scale=-2"}, 2, "-scale must be >= 0", ""},
		{"negative swap ppo", []string{"-null", "swap", "-swap-ppo=-1"}, 2, "-swap-ppo and -swap-proposals must be >= 0", ""},
		{"overflowing swap chain", []string{"-null", "swap", "-swap-ppo", "4611686018427387904",
			"-table", "2", "-datasets", "Bms1", "-scale", "64", "-k", "2"}, 0, "", "overflows int"},
		{"table1 ok", []string{"-table", "1", "-datasets", "Bms1", "-scale", "64"}, 0, "", "== Table 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Fatalf("exit code = %d, want %d\nstdout: %s\nstderr: %s",
					code, tc.wantCode, stdout.String(), stderr.String())
			}
			if tc.wantStderr != "" && !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.wantStderr)
			}
			if tc.wantStdout != "" && !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout %q missing %q", stdout.String(), tc.wantStdout)
			}
			if code != 0 && stderr.Len() == 0 {
				t.Error("non-zero exit with empty stderr")
			}
		})
	}
}
