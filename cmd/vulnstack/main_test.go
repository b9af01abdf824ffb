package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCampaignReferenceRefusesStore: on every campaign path (micro,
// uniform, soft, and stratified at each layer), -reference with -store
// fails before the store is opened, so nothing is written into the
// directory and a missing directory is not created.
func TestCampaignReferenceRefusesStore(t *testing.T) {
	for _, path := range [][]string{
		{"-layer", "micro"},
		{"-layer", "uniform"},
		{"-layer", "soft"},
		{"-strat", "-layer", "micro"},
		{"-strat", "-layer", "arch"},
		{"-strat", "-layer", "soft"},
	} {
		name := strings.Join(path, " ")
		dir := t.TempDir()
		missing := filepath.Join(dir, "new")
		for _, store := range []string{dir, missing} {
			args := append([]string{"-bench", "crc32", "-n", "2", "-reference", "-store", store}, path...)
			if err := cmdCampaign(args); err == nil || !strings.Contains(err.Error(), "-reference") {
				t.Errorf("%s: -reference -store returned %v, want a -reference error", name, err)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 0 {
			t.Errorf("%s: wrote %d entries into the store directory (first %q)", name, len(ents), ents[0].Name())
		}
	}
}
