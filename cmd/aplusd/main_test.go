package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	aplus "github.com/aplusdb/aplus"
)

// TestOpenRefusesClusterLayout pins that a directory holding cluster.json
// is refused with an error naming the file, and that nothing is created
// beside the replica data.
func TestOpenRefusesClusterLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, legacyClusterFile), []byte(`{"shards":2}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := open(dir, aplus.OpenOptions{NoFsync: true})
	if err == nil {
		db.Close()
		t.Fatal("opened a cluster directory as a single database")
	}
	if !strings.Contains(err.Error(), legacyClusterFile) {
		t.Errorf("error %q does not name %s", err, legacyClusterFile)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("refused open left %d entries in the directory, want only %s", len(entries), legacyClusterFile)
	}
}
