// Package enum is the wire codec of the simulator's named enums: the
// protocol, the workload, and the placement, mobility and failure models.
// Each enum declares one Table of its values' spellings, and every path
// that writes, reads or checks a name goes through it: the enum's
// MarshalText, UnmarshalText and UnmarshalJSON, its String method where
// that is the wire name, and Validate's range check.
package enum

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
)

// Table is one enum's names.
type Table[T ~int] struct {
	pkg, noun, want string
	names           map[T][]string // each value's spellings, the written one first
	values          map[string]T   // every spelling's value
}

// New builds an enum's table. names maps each value to its lower-case
// spellings, the first being the one it is written as; every spelling
// parses. pkg and noun word the errors ("experiment", "mobility model"),
// and want is the list an unknown name's error suggests. A spelling given
// to two values panics, since it could not parse back to both.
func New[T ~int](pkg, noun, want string, names map[T][]string) *Table[T] {
	t := &Table[T]{pkg: pkg, noun: noun, want: want, names: names, values: map[string]T{}}
	for v, spellings := range names {
		for _, s := range spellings {
			if w, dup := t.values[s]; dup {
				panic(fmt.Sprintf("enum: %s %q names both %d and %d", noun, s, int(w), int(v)))
			}
			t.values[s] = v
		}
	}
	return t
}

// Has reports whether v has a name.
func (t *Table[T]) Has(v T) bool {
	_, ok := t.names[v]
	return ok
}

// String returns v's written name, or the Go form T(n) for a value with
// none.
func (t *Table[T]) String(v T) string {
	if names, ok := t.names[v]; ok {
		return names[0]
	}
	return fmt.Sprintf("%s(%d)", reflect.TypeFor[T]().Name(), int(v))
}

// Marshal returns v's written name; a value with none is an error.
func (t *Table[T]) Marshal(v T) ([]byte, error) {
	names, ok := t.names[v]
	if !ok {
		return nil, fmt.Errorf("%s: cannot marshal unknown %s %d", t.pkg, t.noun, int(v))
	}
	return []byte(names[0]), nil
}

// Unmarshal sets *v to the value text spells, in any case and with any
// surrounding space.
func (t *Table[T]) Unmarshal(text []byte, v *T) error {
	n, ok := t.values[strings.ToLower(strings.TrimSpace(string(text)))]
	if !ok {
		return fmt.Errorf("%s: unknown %s %q (want %s)", t.pkg, t.noun, text, t.want)
	}
	*v = n
	return nil
}

// DecodeJSON sets *v from a JSON string, read as Unmarshal reads it, or
// from the value's number. JSON null sets the zero value.
func (t *Table[T]) DecodeJSON(data []byte, v *T) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		return t.Unmarshal([]byte(s), v)
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*v = T(n)
	return nil
}
