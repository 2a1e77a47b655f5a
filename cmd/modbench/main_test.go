package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/harness"
)

// TestUsageListsEveryExperiment: the usage text is generated from the
// harness registry, so every experiment modbench can run is named in it.
func TestUsageListsEveryExperiment(t *testing.T) {
	var buf bytes.Buffer
	flag.CommandLine.SetOutput(&buf)
	defer flag.CommandLine.SetOutput(nil)
	usage()
	listed, _, _ := strings.Cut(strings.SplitN(buf.String(), "experiments: ", 2)[1], "\n")
	names := strings.Split(listed, ", ")
	if len(names) != len(harness.Experiments) {
		t.Fatalf("usage lists %d experiments, registry has %d: %q", len(names), len(harness.Experiments), listed)
	}
	for i, name := range harness.Experiments {
		if names[i] != name {
			t.Errorf("usage lists %q where the registry has %q", names[i], name)
		}
	}
}
