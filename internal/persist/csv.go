package persist

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// ExportCSV writes the fact table as CSV: one header row (the base level
// name of every hierarchy, then the measure names) and one row per fact,
// with base member names and measure values.
func ExportCSV(w io.Writer, f *storage.FactTable) error {
	cw := csv.NewWriter(w)
	s := f.Schema
	header := make([]string, 0, len(s.Hiers)+len(s.Measures))
	for _, h := range s.Hiers {
		header = append(header, h.Levels()[0])
	}
	for _, m := range s.Measures {
		header = append(header, m.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	src := f.ScanSource(storage.ColSet{}, nil)
	defer src.Close()
	err := copyRows(func(keys []int32, vals []float64) error {
		for h, k := range keys {
			row[h] = s.Hiers[h].Dict(0).Name(k)
		}
		for m, v := range vals {
			row[len(keys)+m] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		return cw.Write(row)
	}, src, len(s.Hiers), len(s.Measures))
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ImportCSV reads fact rows in the ExportCSV layout into a new fact
// table over the given schema. Member names must already be registered
// in the schema's dictionaries (hierarchies are metadata, facts are
// data); unknown members or malformed values are errors carrying the
// line number.
func ImportCSV(r io.Reader, s *mdm.Schema) (*storage.FactTable, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(s.Hiers) + len(s.Measures)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("persist: reading CSV header: %w", err)
	}
	for h := range s.Hiers {
		if want := s.Hiers[h].Levels()[0]; header[h] != want {
			return nil, fmt.Errorf("persist: CSV column %d is %q, want level %q", h, header[h], want)
		}
	}
	for m := range s.Measures {
		if want := s.Measures[m].Name; header[len(s.Hiers)+m] != want {
			return nil, fmt.Errorf("persist: CSV column %d is %q, want measure %q",
				len(s.Hiers)+m, header[len(s.Hiers)+m], want)
		}
	}
	f := storage.NewFactTable(s)
	keys := make([]int32, len(s.Hiers))
	vals := make([]float64, len(s.Measures))
	line := 1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return f, nil
		}
		if err != nil {
			return nil, fmt.Errorf("persist: CSV line %d: %w", line+1, err)
		}
		line++
		for h := range s.Hiers {
			id, ok := s.Hiers[h].Dict(0).Lookup(rec[h])
			if !ok {
				return nil, fmt.Errorf("persist: CSV line %d: unknown %s member %q",
					line, s.Hiers[h].Levels()[0], rec[h])
			}
			keys[h] = id
		}
		for m := range s.Measures {
			v, err := strconv.ParseFloat(rec[len(s.Hiers)+m], 64)
			if err != nil {
				return nil, fmt.Errorf("persist: CSV line %d: bad %s value %q",
					line, s.Measures[m].Name, rec[len(s.Hiers)+m])
			}
			vals[m] = v
		}
		if err := f.Append(keys, vals); err != nil {
			return nil, fmt.Errorf("persist: CSV line %d: %w", line, err)
		}
	}
}
