package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

// TestCacheRoundTrip stores and retrieves a replicate vector.
func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatalf("OpenCache: %v", err)
	}
	if _, ok, err := c.Get(hashA); ok || err != nil {
		t.Fatalf("Get(empty) = hit=%v err=%v, want clean miss", ok, err)
	}
	want := []experiment.Result{{TotalEnergy: 1.5, Items: 3}, {TotalEnergy: 2.5, Items: 3}}
	if err := c.Put(hashA, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(hashA)
	if err != nil || !ok {
		t.Fatalf("Get = hit=%v err=%v, want hit", ok, err)
	}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("Get = %+v, want %+v", got, want)
	}
	// A different hash stays a miss.
	if _, ok, _ := c.Get(hashB); ok {
		t.Fatal("Get(other hash) hit")
	}
}

// TestCacheRejectsBadKeys: only sha256 hex digests may name entries — the
// key is a path component.
func TestCacheRejectsBadKeys(t *testing.T) {
	c, _ := OpenCache(t.TempDir())
	for _, bad := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64), strings.Repeat("a", 63) + "/"} {
		if err := c.Put(bad, []experiment.Result{{}}); err == nil {
			t.Errorf("Put(%q) accepted a non-digest key", bad)
		}
		if _, _, err := c.Get(bad); err == nil {
			t.Errorf("Get(%q) accepted a non-digest key", bad)
		}
	}
}

// TestCacheCorruptEntryIsMiss: an entry that is not exactly what Put
// writes for its hash must read as a miss (the cache may forget, never
// lie), an I/O error must surface, and a Put must repair the entry.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir)
	path := filepath.Join(dir, hashA+".json")
	// A directory at the entry's path is not a damaged entry but an I/O
	// error, reported with the failed operation and the path.
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	_, ok, err := c.Get(hashA)
	var pe *os.PathError
	if ok || !errors.As(err, &pe) || pe.Path != path || !strings.HasPrefix(err.Error(), "checkpoint: cache read: "+pe.Op+" "+path+": ") {
		t.Fatalf("Get(directory) = hit=%v err=%v, want a checkpoint: cache read: <op> %s error", ok, err, path)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	for _, e := range corruptEntries(t) {
		if err := os.WriteFile(path, e.data, 0o644); err != nil {
			t.Fatalf("plant %s: %v", e.name, err)
		}
		if got, ok, err := c.Get(hashA); ok || err != nil {
			t.Errorf("Get(%s) = hit=%v err=%v %+v, want clean miss", e.name, ok, err, got)
		}
		if err := c.Put(hashA, []experiment.Result{{TotalEnergy: 9}}); err != nil {
			t.Fatalf("Put over corrupt entry %s: %v", e.name, err)
		}
		if got, ok, err := c.Get(hashA); err != nil || !ok || got[0].TotalEnergy != 9 {
			t.Errorf("entry %s repaired by Put: hit=%v err=%v got=%+v", e.name, ok, err, got)
		}
	}
}

// plantedEntry is a cache file's contents, named for the test log.
type plantedEntry struct {
	name string
	data []byte
}

// putBytes returns the file Put writes for results under hashA.
func putBytes(tb testing.TB, results ...experiment.Result) []byte {
	tb.Helper()
	dir := tb.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.Put(hashA, results); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, hashA+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// corruptEntries are files under hashA's name that Get must miss. The
// first four decode under json.Unmarshal — into a Result with a field
// left zero, a key dropped, or keys written some other way — so only a
// decoder of exactly Put's form misses them.
func corruptEntries(tb testing.TB) []plantedEntry {
	good := putBytes(tb, experiment.Result{TotalEnergy: 1.5, Items: 3, FailuresInjected: 2})
	edit := func(old, new string) []byte {
		if !bytes.Contains(good, []byte(old)) {
			tb.Fatalf("Put's entry %s lacks %s", good, old)
		}
		return bytes.Replace(good, []byte(old), []byte(new), 1)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, good, "", "  "); err != nil {
		tb.Fatal(err)
	}
	return []plantedEntry{
		{"missing field", edit(`,"failuresInjected":2`, ``)},
		{"unknown field", edit(`"failuresInjected":2}`, `"failuresInjected":2,"retired":7}`)},
		{"whitespace", indented.Bytes()},
		{"reordered keys", edit(`"totalEnergy":1.5,"energyPerPacket":0`, `"energyPerPacket":0,"totalEnergy":1.5`)},
		{"leading zero", edit(`"items":3`, `"items":03`)},
		{"trailing garbage", append(bytes.Clone(good), "x"...)},
		{"torn", []byte("{torn")},
		{"truncated", good[:len(good)/2]},
		// An entry whose self-described hash disagrees with its filename
		// is a lie, not a cache entry.
		{"other hash", edit(hashA, hashB)},
		{"empty vector", []byte(`{"scenarioHash":"` + hashA + `","results":[]}`)},
		{"integer field as float", edit(`"items":3`, `"items":3.0`)},
	}
}

// TestCacheRoundTripEveryField sets every Result field, by reflection, to
// a distinct value — extremes included — and checks that Get returns
// exactly what json.Unmarshal decodes from the same bytes, and what Put
// stored. Each kind draws from its own table of values, in field order
// across three replicates, then from generated ones.
func TestCacheRoundTripEveryField(t *testing.T) {
	floats := []float64{5e-324, 1e-7, 1e21, -math.MaxFloat64, math.MaxFloat64, 0.1, -2.5e-300, 123456.789}
	int64s := []int64{math.MinInt64, math.MaxInt64, -1}
	ints := []int64{math.MinInt, math.MaxInt, 0, 1}
	uints := []uint64{math.MaxUint64, 1 << 63, 0, 1}
	want := make([]experiment.Result, 3)
	used := map[reflect.Kind]int{} // values set so far, per kind
	for r := range want {
		v := reflect.ValueOf(&want[r]).Elem()
		for i := range v.NumField() {
			f := v.Field(i)
			k := used[f.Kind()]
			used[f.Kind()]++
			switch f.Kind() {
			case reflect.Float64:
				if k < len(floats) {
					f.SetFloat(floats[k])
				} else {
					f.SetFloat(float64(k) * 1.0625e-3)
				}
			case reflect.Int64:
				if k < len(int64s) {
					f.SetInt(int64s[k])
				} else {
					f.SetInt(int64(k) * 7919)
				}
			case reflect.Int:
				if k < len(ints) {
					f.SetInt(ints[k])
				} else {
					f.SetInt(int64(k) * -7919)
				}
			case reflect.Uint64:
				if k < len(uints) {
					f.SetUint(uints[k])
				} else {
					f.SetUint(uint64(k) * 0x9e3779b97f4a7c15)
				}
			default:
				t.Fatalf("Result.%s: no test values for a %s", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	for _, table := range []struct {
		kind reflect.Kind
		n    int
	}{{reflect.Float64, len(floats)}, {reflect.Int64, len(int64s)}, {reflect.Int, len(ints)}, {reflect.Uint64, len(uints)}} {
		if used[table.kind] < table.n {
			t.Fatalf("Result has %d %s fields over %d replicates; %d test values would go unused", used[table.kind], table.kind, len(want), table.n)
		}
	}
	dir := t.TempDir()
	c, _ := OpenCache(dir)
	if err := c.Put(hashA, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok, err := c.Get(hashA)
	if err != nil || !ok {
		t.Fatalf("Get = hit=%v err=%v, want hit", ok, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, hashA+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, e.Results) || !slices.Equal(got, want) {
		t.Fatalf("entry %s\nGet           %+v\njson.Unmarshal %+v\nPut           %+v", data, got, e.Results, want)
	}
}

// TestNumberLenMatchesJSON: numberLen accepts exactly the strings
// encoding/json accepts as a number, over every string of up to five
// bytes drawn from the number grammar's alphabet.
func TestNumberLenMatchesJSON(t *testing.T) {
	const alphabet = "-+.eE01"
	var walk func(s []byte)
	walk = func(s []byte) {
		if len(s) > 0 && (numberLen(s) == len(s)) != json.Valid(s) {
			t.Errorf("numberLen(%q) = %d, json.Valid = %v", s, numberLen(s), json.Valid(s))
		}
		if len(s) < 5 {
			for i := range len(alphabet) {
				walk(append(s, alphabet[i]))
			}
		}
	}
	walk(nil)
}

// FuzzCacheEntry: the entry decoder never lies. Whatever it accepts,
// json.Unmarshal also decodes, to the same hash and equal results.
func FuzzCacheEntry(f *testing.F) {
	f.Add(putBytes(f, experiment.Result{TotalEnergy: 1.5, MeanDelay: 1e9, Items: 3, SentADV: 7}))
	f.Add(putBytes(f, experiment.Result{DeliveryRate: 1}, experiment.Result{Drops: 2, CtrlEnergy: 1e-7}, experiment.Result{MaxDelay: -1, EnergyPerPacket: 1e21}))
	for _, e := range corruptEntries(f) {
		f.Add(e.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ok := decodeEntry(data, hashA)
		if !ok {
			return
		}
		var e cacheEntry
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatalf("decoder hit on %q, which json.Unmarshal rejects: %v", data, err)
		}
		if e.Hash != hashA || len(e.Results) == 0 || !slices.Equal(got, e.Results) {
			t.Fatalf("decoder hit on %q with %+v; json.Unmarshal reads hash %q and %+v", data, got, e.Hash, e.Results)
		}
	})
}

// TestCacheAtomicPublish: after a Put, no temporary files remain — entries
// appear atomically or not at all.
func TestCacheAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	c, _ := OpenCache(dir)
	if err := c.Put(hashA, []experiment.Result{{Items: 1}}); err != nil {
		t.Fatalf("Put: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 || entries[0].Name() != hashA+".json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("cache dir holds %v, want exactly one published entry", names)
	}
}

// TestCacheRefusesEmptyVector: an empty replicate vector can never be a
// finished point.
func TestCacheRefusesEmptyVector(t *testing.T) {
	c, _ := OpenCache(t.TempDir())
	if err := c.Put(hashA, nil); err == nil {
		t.Fatal("Put(nil) accepted")
	}
}
