package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"testing"
)

// TestCommittedFilesReproduce is the rule for artefacts as a test: every
// experiment that names a committed BENCH file is run twice, at the
// smallest size its flags allow, and the two marshalled reports must be
// equal byte for byte — so the file reproduces on any host and CI can
// `git diff --exit-code` it. A wall-clock or schedule-dependent field
// that leaks into a report fails here.
func TestCommittedFilesReproduce(t *testing.T) {
	fs := flag.NewFlagSet("mmdbench", flag.ContinueOnError)
	table := Table(fs)
	if err := fs.Parse([]string{"-tuples", "3000", "-clients", "3", "-dur", "500ms"}); err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, e := range table {
		if e.File == "" {
			continue
		}
		files++
		t.Run(e.Name, func(t *testing.T) {
			marshal := func() []byte {
				report, err := e.Run(io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				data, err := json.Marshal(report)
				if err != nil {
					t.Fatal(err)
				}
				return data
			}
			a, b := marshal(), marshal()
			if !bytes.Equal(a, b) {
				t.Fatalf("%s is not reproducible: same flags, different reports:\n%s\n---\n%s", e.File, a, b)
			}
		})
	}
	if files == 0 {
		t.Fatal("no experiment names a committed file")
	}
}
