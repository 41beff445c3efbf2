package assess

import (
	"io"

	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/persist"
)

// SaveSession writes every cube registered on s into dir, one cube
// directory each (named after the cube), with the range-based labelers
// declared on the session in dir's labeler sidecar. Library labelers are
// not written: every session has them.
func SaveSession(dir string, s *Session) error {
	cubes := make(map[string]*FactTable)
	for _, name := range s.Engine.Facts() {
		cubes[name], _ = s.Engine.Fact(name)
	}
	library := labeling.NewRegistry()
	var declared []*labeling.Ranges
	for _, name := range s.Binder.Labelers.Names() {
		l, _ := s.Binder.Labelers.Lookup(name)
		if r, ok := l.(*labeling.Ranges); ok {
			if _, lib := library.Lookup(name); !lib {
				declared = append(declared, r)
			}
		}
	}
	return persist.SaveDir(dir, cubes, declared)
}

// OpenSession opens a directory written by SaveSession (or by ssbgen
// -out-dir, or a single cube directory) as a session: each cube is
// registered under its schema name, hierarchies the cubes share are
// reconciled so external benchmarks join them, and the saved labelers
// are registered. Cubes stay on disk and are scanned out of core unless
// resident is set, which decodes them into memory. The returned function
// closes the on-disk stores once the session is no longer used.
func OpenSession(dir string, resident bool) (*Session, func() error, error) {
	o, err := persist.OpenDir(dir, resident)
	if err != nil {
		return nil, nil, err
	}
	s := NewSession()
	for _, f := range o.Facts {
		if err = s.RegisterCube(f.Schema.Name, f); err != nil {
			break
		}
	}
	for _, l := range o.Labelers {
		if err == nil {
			err = s.RegisterLabeler(l)
		}
	}
	if err != nil {
		o.Close()
		return nil, nil, err
	}
	return s, o.Close, nil
}

// ExportCSV writes the fact rows as CSV: a header with the base level of
// every hierarchy and the measure names, then one row per fact.
func ExportCSV(w io.Writer, f *FactTable) error { return persist.ExportCSV(w, f) }

// ImportCSV reads fact rows in the ExportCSV layout into a new fact
// table over an existing schema; member names must already be registered.
func ImportCSV(r io.Reader, s *Schema) (*FactTable, error) { return persist.ImportCSV(r, s) }
