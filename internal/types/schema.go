package types

import (
	"fmt"
	"strings"
)

// Field is a named, typed column in a schema.
type Field struct {
	Name     string
	Kind     Kind
	Nullable bool
	// Comment is an optional human-readable description carried through
	// catalog metadata.
	Comment string
}

// String renders the field as "name TYPE [NOT NULL]".
func (f Field) String() string {
	s := f.Name + " " + f.Kind.String()
	if !f.Nullable {
		s += " NOT NULL"
	}
	return s
}

// Schema is an ordered list of fields.
type Schema struct {
	Fields []Field
}

// NewSchema builds a schema from fields.
func NewSchema(fields ...Field) *Schema { return &Schema{Fields: fields} }

// Len returns the number of fields.
func (s *Schema) Len() int { return len(s.Fields) }

// IndexOf returns the position of the named field (case-insensitive), or -1.
func (s *Schema) IndexOf(name string) int {
	for i, f := range s.Fields {
		if strings.EqualFold(f.Name, name) {
			return i
		}
	}
	return -1
}

// Field returns the field at position i.
func (s *Schema) Field(i int) Field { return s.Fields[i] }

// Names returns the field names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Fields))
	for i, f := range s.Fields {
		names[i] = f.Name
	}
	return names
}

// Kinds returns the field kinds in order.
func (s *Schema) Kinds() []Kind {
	kinds := make([]Kind, len(s.Fields))
	for i, f := range s.Fields {
		kinds[i] = f.Kind
	}
	return kinds
}

// Project returns a new schema keeping only the fields at the given indices.
func (s *Schema) Project(indices []int) *Schema {
	out := &Schema{Fields: make([]Field, len(indices))}
	for i, idx := range indices {
		out.Fields[i] = s.Fields[idx]
	}
	return out
}

// Concat returns a schema with o's fields appended to s's (used by joins).
func (s *Schema) Concat(o *Schema) *Schema {
	out := &Schema{Fields: make([]Field, 0, len(s.Fields)+len(o.Fields))}
	out.Fields = append(out.Fields, s.Fields...)
	out.Fields = append(out.Fields, o.Fields...)
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Fields: make([]Field, len(s.Fields))}
	copy(out.Fields, s.Fields)
	return out
}

// Equal reports whether two schemas have identical names and kinds.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Fields) != len(o.Fields) {
		return false
	}
	for i := range s.Fields {
		if !strings.EqualFold(s.Fields[i].Name, o.Fields[i].Name) || s.Fields[i].Kind != o.Fields[i].Kind {
			return false
		}
	}
	return true
}

// String renders the schema as "(a BIGINT, b STRING)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, f := range s.Fields {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(f.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Validate checks the schema for duplicate names and invalid kinds.
func (s *Schema) Validate() error {
	seen := make(map[string]bool, len(s.Fields))
	for _, f := range s.Fields {
		if f.Name == "" {
			return fmt.Errorf("schema has field with empty name")
		}
		key := strings.ToLower(f.Name)
		if seen[key] {
			return fmt.Errorf("schema has duplicate field %q", f.Name)
		}
		seen[key] = true
		if !f.Kind.Valid() || f.Kind == KindNull {
			return fmt.Errorf("field %q has invalid kind %v", f.Name, f.Kind)
		}
	}
	return nil
}
