package mmdb

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"mmdb/internal/lock"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// ExportCSV writes the relation as CSV, under a shared intent. With
// header, the first row carries the column names.
func (r *Relation) ExportCSV(w io.Writer, header bool) error {
	cw := csv.NewWriter(w)
	schema := r.Schema()
	if header {
		names := make([]string, schema.NumFields())
		for i := range names {
			names[i] = schema.Field(i).Name
		}
		if err := cw.Write(names); err != nil {
			return err
		}
	}
	// The scan reads the stored pages in place: hold the shared intent
	// that keeps writers off them.
	err := r.withIntent(lock.Shared, func() error {
		return r.rel.File.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
			row := make([]string, schema.NumFields())
			for i := range row {
				row[i] = schema.Get(t, i).String()
			}
			return cw.Write(row) == nil
		})
	})
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV parses rows according to the relation's schema and inserts
// them (maintaining indexes), returning the row count. With header, the
// first row is validated against the column names.
func (r *Relation) ImportCSV(rd io.Reader, header bool) (int64, error) {
	cr := csv.NewReader(rd)
	schema := r.Schema()
	cr.FieldsPerRecord = schema.NumFields()
	line := 0
	if header {
		names, err := cr.Read()
		if err != nil {
			return 0, fmt.Errorf("mmdb: reading CSV header: %w", err)
		}
		line++
		for i, n := range names {
			if n != schema.Field(i).Name {
				return 0, fmt.Errorf("mmdb: CSV header column %d is %q, schema has %q",
					i, n, schema.Field(i).Name)
			}
		}
	}
	var count int64
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return count, fmt.Errorf("mmdb: CSV line %d: %w", line+1, err)
		}
		line++
		values := make([]Value, len(row))
		for i, cell := range row {
			v, err := parseCell(schema.Field(i), cell)
			if err != nil {
				return count, fmt.Errorf("mmdb: CSV line %d, column %q: %w",
					line, schema.Field(i).Name, err)
			}
			values[i] = v
		}
		t, err := schema.Encode(values...)
		if err != nil {
			return count, fmt.Errorf("mmdb: CSV line %d: %w", line, err)
		}
		if err := r.InsertTuple(t); err != nil {
			return count, err
		}
		count++
	}
	return count, r.Flush()
}

func parseCell(f Field, cell string) (Value, error) {
	switch f.Kind {
	case Int64:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Value{}, err
		}
		return IntValue(v), nil
	case Float64:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Value{}, err
		}
		return FloatValue(v), nil
	case String:
		if len(cell) > f.Size {
			return Value{}, fmt.Errorf("value %q exceeds column width %d", cell, f.Size)
		}
		return StringValue(cell), nil
	default:
		return Value{}, fmt.Errorf("unsupported kind %v", f.Kind)
	}
}
