package main

import (
	"flag"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mmdb/internal/experiments"
)

// TestUsageNamesTheTable keeps the two places a user learns the -exp
// names from — the package comment's usage list and the -exp flag help —
// equal to the experiment table.
func TestUsageNamesTheTable(t *testing.T) {
	fs := flag.NewFlagSet("mmdbench", flag.ContinueOnError)
	table := experiments.Table(fs)
	expFlag(fs, table)
	want := []string{"all"}
	for _, e := range table {
		want = append(want, e.Name)
	}

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, _ := strings.Cut(string(src), "\npackage main")
	var inDoc []string
	for _, m := range regexp.MustCompile(`(?m)^//\tmmdbench -exp (\w+)`).FindAllStringSubmatch(doc, -1) {
		if !slices.Contains(inDoc, m[1]) { // figure1 is listed with and without -full
			inDoc = append(inDoc, m[1])
		}
	}
	if !slices.Equal(inDoc, want) {
		t.Errorf("package comment lists -exp %v\nthe table has %v", inDoc, want)
	}

	_, help, _ := strings.Cut(fs.Lookup("exp").Usage, "experiment: ")
	if !slices.Equal(strings.Split(help, "|"), want) {
		t.Errorf("-exp help lists %q, the table has %v", help, want)
	}
}
