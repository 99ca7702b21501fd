package packet

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{ADV, "ADV"},
		{REQ, "REQ"},
		{DATA, "DATA"},
		{CTRL, "CTRL"},
		{Kind(99), "Kind(99)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Fatalf("Kind(%d).String()=%q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestDefaultSizesMatchTable1(t *testing.T) {
	s := DefaultSizes()
	if s.ADV != 2 || s.REQ != 2 {
		t.Fatalf("ADV/REQ sizes = %d/%d, want 2/2 (Table 1)", s.ADV, s.REQ)
	}
	if s.DATA != 40 {
		t.Fatalf("DATA size = %d, want 40 (DATA:REQ = 20, Table 1)", s.DATA)
	}
	if s.DATA != 20*s.REQ {
		t.Fatalf("DATA:REQ ratio = %d, want 20", s.DATA/s.REQ)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("default sizes invalid: %v", err)
	}
}

func TestSizesOf(t *testing.T) {
	s := DefaultSizes()
	tests := []struct {
		k    Kind
		want int
	}{
		{ADV, 2},
		{REQ, 2},
		{DATA, 40},
		{CTRL, 2},
	}
	for _, tt := range tests {
		if got := s.Of(tt.k); got != tt.want {
			t.Fatalf("Of(%v)=%d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestSizesOfUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Of(unknown kind) should panic")
		}
	}()
	DefaultSizes().Of(Kind(42))
}

func TestSizesValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Sizes
		wantErr bool
	}{
		{"default", DefaultSizes(), false},
		{"zero ADV", Sizes{ADV: 0, REQ: 2, DATA: 40}, true},
		{"negative DATA", Sizes{ADV: 2, REQ: 2, DATA: -1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("err=%v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestDataIDString(t *testing.T) {
	d := DataID{Origin: 7, Seq: 3}
	if got := d.String(); got != "d7.3" {
		t.Fatalf("String()=%q, want d7.3", got)
	}
}

func TestDataIDComparable(t *testing.T) {
	a := DataID{Origin: 1, Seq: 2}
	b := DataID{Origin: 1, Seq: 2}
	c := DataID{Origin: 1, Seq: 3}
	if a != b {
		t.Fatal("identical DataIDs must compare equal")
	}
	if a == c {
		t.Fatal("distinct DataIDs must compare unequal")
	}
	m := map[DataID]bool{a: true}
	if !m[b] {
		t.Fatal("DataID must be usable as a map key")
	}
}

func TestPacketString(t *testing.T) {
	p := Packet{
		Kind: REQ, Meta: DataID{Origin: 2, Seq: 1},
		Src: 3, Dst: 4, Requester: 3, Provider: 2, Level: 5, Bytes: 2,
	}
	s := p.String()
	for _, frag := range []string{"REQ", "d2.1", "3->4", "req=3", "prov=2"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("Packet.String()=%q missing %q", s, frag)
		}
	}
}

func TestReservedIDs(t *testing.T) {
	if Broadcast != -1 || None != -2 {
		t.Fatal("reserved IDs changed; protocol code relies on these sentinels")
	}
	if Broadcast == None {
		t.Fatal("Broadcast and None must be distinct")
	}
}

// TestCompactLayout pins the sizes of the packet the network keeps a copy
// of per transmission on the air, and of its item name (DESIGN §8): a field
// that regrows one of them fails here with the type's name.
func TestCompactLayout(t *testing.T) {
	if strconv.IntSize != 64 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	for _, c := range []struct {
		typ  reflect.Type
		want uintptr
	}{
		{reflect.TypeFor[Packet](), 72},
		{reflect.TypeFor[DataID](), 8},
	} {
		if got := c.typ.Size(); got != c.want {
			t.Errorf("%v is %d bytes, want %d", c.typ, got, c.want)
		}
	}
}
