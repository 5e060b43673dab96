package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestAppendRunKeepsHistory: appending a run to the committed trajectory
// rewrites none of the runs already in it, fields this hcload no longer
// records (decode_allocs, shard_mode) included.
func TestAppendRunKeepsHistory(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_wire.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(committed, []byte(`"decode_allocs"`)) {
		t.Fatal("committed trajectory has no decode_allocs record to carry")
	}
	path := filepath.Join(t.TempDir(), "BENCH_wire.json")
	if err := os.WriteFile(path, committed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := appendRun(path, wireRun{Note: "appended"}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The committed file ends "    }\n  ]\n}\n"; everything before its
	// closing bracket must come back unchanged.
	head := committed[:bytes.LastIndex(committed, []byte("\n  ]"))]
	if !bytes.HasPrefix(got, head) {
		t.Fatal("appending a run rewrote the runs before it")
	}
}
