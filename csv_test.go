package mmdb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	db := openTestDB(t)
	emp, _ := loadCompany(t, db, 50, 5)

	var buf bytes.Buffer
	if err := emp.ExportCSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 51 {
		t.Fatalf("exported %d lines", len(lines))
	}
	if lines[0] != "id,dept,salary,name" {
		t.Fatalf("header %q", lines[0])
	}

	// Import into a fresh relation with the same schema.
	copyRel, err := db.CreateRelation("emp2", empSchema())
	if err != nil {
		t.Fatal(err)
	}
	n, err := copyRel.ImportCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if n != 50 || copyRel.NumTuples() != 50 {
		t.Fatalf("imported %d rows", n)
	}
	// Spot-check content equality via a join on id.
	res, err := db.Query("SELECT * FROM emp JOIN emp2 ON emp.id = emp2.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 50 {
		t.Fatalf("join matched %d of 50", len(res.Rows))
	}
	for _, v := range res.Values() {
		if fmt.Sprint(v[:4]) != fmt.Sprint(v[4:]) {
			t.Fatalf("round-tripped row differs: %v", v)
		}
	}
}

func TestCSVImportValidation(t *testing.T) {
	db := openTestDB(t)
	rel, err := db.CreateRelation("r", MustSchema(
		Field{Name: "k", Kind: Int64},
		Field{Name: "s", Kind: String, Size: 4},
	))
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"bad-header,s\n1,a\n",   // wrong header name
		"k,s\nnot-a-number,a\n", // unparsable int
		"k,s\n1,waytoolong\n",   // oversized string
		"k,s\n1\n",              // wrong arity
	}
	for i, in := range cases {
		if _, err := rel.ImportCSV(strings.NewReader(in), true); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Headerless import works.
	n, err := rel.ImportCSV(strings.NewReader("7,ab\n8,cd\n"), false)
	if err != nil || n != 2 {
		t.Fatalf("headerless import: %d %v", n, err)
	}
}

func TestCSVImportMaintainsIndexes(t *testing.T) {
	db := openTestDB(t)
	rel, err := db.CreateRelation("r", MustSchema(Field{Name: "k", Kind: Int64}))
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.CreateIndex("k", BTree); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.ImportCSV(strings.NewReader("5\n9\n"), false); err != nil {
		t.Fatal(err)
	}
	rows, err := rel.Lookup("k", IntValue(9))
	if err != nil || len(rows) != 1 {
		t.Fatalf("indexed lookup after import: %v %d", err, len(rows))
	}
}
