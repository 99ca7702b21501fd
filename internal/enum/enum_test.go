package enum

import "testing"

type color int

var colors = New("paint", "color", "red | green", map[color][]string{
	1: {"red", "crimson"},
	2: {"green"},
})

func TestTableNames(t *testing.T) {
	for v, want := range map[color]string{1: "red", 2: "green", 0: "color(0)", 9: "color(9)"} {
		if got := colors.String(v); got != want {
			t.Errorf("String(%d) = %q, want %q", v, got, want)
		}
		if colors.Has(v) != (v == 1 || v == 2) {
			t.Errorf("Has(%d) = %v", v, colors.Has(v))
		}
	}
	if b, err := colors.Marshal(1); err != nil || string(b) != "red" {
		t.Errorf("Marshal(1) = %q, %v", b, err)
	}
	if _, err := colors.Marshal(9); err == nil || err.Error() != "paint: cannot marshal unknown color 9" {
		t.Errorf("Marshal(9) error = %v", err)
	}
	var c color
	if err := colors.Unmarshal([]byte(" Crimson\t"), &c); err != nil || c != 1 {
		t.Errorf("Unmarshal(alias) = %d, %v", c, err)
	}
	if err := colors.Unmarshal([]byte("Blue"), &c); err == nil || err.Error() != `paint: unknown color "Blue" (want red | green)` {
		t.Errorf("Unmarshal(unknown) error = %v", err)
	}
	for in, want := range map[string]color{`"GREEN"`: 2, `1`: 1, `9`: 9, `null`: 0} {
		c = 2
		if err := colors.DecodeJSON([]byte(in), &c); err != nil || c != want {
			t.Errorf("DecodeJSON(%s) = %d, %v; want %d", in, c, err, want)
		}
	}
}

func TestNewRejectsSharedSpelling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a spelling of two values was accepted")
		}
	}()
	New("paint", "color", "", map[color][]string{1: {"red"}, 2: {"red"}})
}

// TestJSONNumberErrors checks that a malformed numeric form fails with
// encoding/json's own error.
func TestJSONNumberErrors(t *testing.T) {
	var c color
	for in, want := range map[string]string{
		`1.5`:  "json: cannot unmarshal number 1.5 into Go value of type int",
		`true`: "json: cannot unmarshal bool into Go value of type int",
	} {
		if err := colors.DecodeJSON([]byte(in), &c); err == nil || err.Error() != want {
			t.Errorf("DecodeJSON(%s) error = %v, want %s", in, err, want)
		}
	}
}
