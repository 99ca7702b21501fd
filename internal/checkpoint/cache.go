// cache.go is the content-addressed result cache: canonical scenario hash
// → finished replicate vector, one JSON file per hash. Because the key is
// the hash of the fully-defaulted scenario (replications included), any
// campaign whose grid contains an equivalent point — a re-run of a golden
// campaign, an overlapping sweep, a resumed shard — reuses the finished
// result instead of resimulating it, across processes and across
// campaigns. Entries are published atomically (temp file + rename), so
// concurrent campaigns sharing a cache directory can only ever observe
// complete entries.
package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"

	"repro/internal/experiment"
)

// Cache is a directory of content-addressed finished points.
type Cache struct {
	dir string // cleaned, with its trailing separator
}

// cacheEntry is the stored form of one finished point. The hash is
// repeated inside the file so an entry is self-describing and a mangled
// filename cannot silently serve the wrong results.
type cacheEntry struct {
	Hash    string              `json:"scenarioHash"`
	Results []experiment.Result `json:"results"`
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create cache dir: %w", err)
	}
	dir = filepath.Clean(dir)
	if !os.IsPathSeparator(dir[len(dir)-1]) {
		dir += string(filepath.Separator)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string { return filepath.Clean(c.dir) }

// entryPath maps a hash to its file, rejecting anything that is not a
// plain lowercase-hex name (the hash is used as a path component; this
// keeps a corrupted caller from escaping the cache directory).
func (c *Cache) entryPath(hash string) (string, error) {
	if len(hash) != 64 {
		return "", fmt.Errorf("checkpoint: cache key %q is not a sha256 hex digest", hash)
	}
	for _, ch := range hash {
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return "", fmt.Errorf("checkpoint: cache key %q is not a sha256 hex digest", hash)
		}
	}
	return c.dir + hash + ".json", nil
}

// entryBufSize is Get's stack buffer: a one-replicate entry is ~0.5 KB
// and each further replicate adds ~0.4 KB, so about ten fit. A larger
// entry is read into the heap.
const entryBufSize = 4096

// Get returns the cached replicate vector for hash, if present. A missing
// entry is an ordinary miss. A present entry that is not exactly what Put
// writes for hash (torn by an ancient crash, hand-edited, wrong
// self-described hash, written for a Result with other fields) is also a
// miss — the cache's contract is "may remember, never lies", and a
// subsequent Put overwrites the damage — but genuine I/O errors surface.
func (c *Cache) Get(hash string) ([]experiment.Result, bool, error) {
	path, err := c.entryPath(hash)
	if err != nil {
		return nil, false, err
	}
	var buf [entryBufSize]byte
	data, err := readEntry(path, buf[:0])
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("checkpoint: cache read: %w", err)
	}
	results, ok := decodeEntry(data, hash)
	return results, ok, nil
}

// resultKeys holds, for each experiment.Result field in declaration order
// (the order encoding/json writes them), the bytes Put's encoding writes
// before its value: `{"name":` for the first field, `,"name":` after it.
// It is built once from the struct's json tags, so a field added to
// Result is decoded with the rest, and an entry written before it existed
// lacks its key and misses. A field this decoder cannot read fails every
// test at package initialization.
var resultKeys = buildResultKeys()

func buildResultKeys() []string {
	t := reflect.TypeFor[experiment.Result]()
	keys := make([]string, t.NumField())
	for i := range keys {
		f := t.Field(i)
		switch k := f.Type.Kind(); {
		case !f.IsExported() || f.Anonymous || !plainJSONName(f.Tag.Get("json")):
			panic(fmt.Sprintf("checkpoint: Result.%s: the cache decoder needs a plain json tag name", f.Name))
		case k != reflect.Float64 && k != reflect.Int && k != reflect.Int64 && k != reflect.Uint64:
			panic(fmt.Sprintf("checkpoint: Result.%s: the cache decoder reads no %s", f.Name, k))
		}
		sep := ","
		if i == 0 {
			sep = "{"
		}
		keys[i] = sep + `"` + f.Tag.Get("json") + `":`
	}
	return keys
}

// plainJSONName reports whether tag is a bare field name that
// encoding/json writes verbatim: no options, nothing to escape.
func plainJSONName(tag string) bool {
	for _, ch := range []byte(tag) {
		if (ch < 'a' || ch > 'z') && (ch < 'A' || ch > 'Z') && (ch < '0' || ch > '9') && ch != '_' {
			return false
		}
	}
	return tag != ""
}

// decodeEntry decodes the one form Put writes for hash,
//
//	{"scenarioHash":"<hash>","results":[{"totalEnergy":1.5,…},…]}
//
// plus an optional newline, with each Result field present once, in
// declaration order, as a JSON number. Anything else — whitespace, another
// key order, a missing or unknown key, an empty vector, trailing bytes —
// reports false: the entry is a miss. Numbers are checked against the
// JSON grammar and parsed by strconv exactly as encoding/json parses
// them, so a hit decodes what json.Unmarshal would.
func decodeEntry(data []byte, hash string) ([]experiment.Result, bool) {
	d := data
	if !cut(&d, `{"scenarioHash":"`) || !cut(&d, hash) || !cut(&d, `","results":[`) {
		return nil, false
	}
	var results []experiment.Result
	for {
		results = append(results, experiment.Result{})
		if !decodeResult(&d, reflect.ValueOf(&results[len(results)-1]).Elem()) {
			return nil, false
		}
		if !cut(&d, ",") {
			break
		}
	}
	if !cut(&d, "]}") {
		return nil, false
	}
	if cut(&d, "\n"); len(d) > 0 {
		return nil, false
	}
	return results, true
}

// decodeResult decodes one Result object from the front of *d into r.
// Each value is parsed and range-checked as encoding/json does it for the
// field's kind.
func decodeResult(d *[]byte, r reflect.Value) bool {
	for i, key := range resultKeys {
		if !cut(d, key) {
			return false
		}
		n := numberLen(*d)
		if n == 0 {
			return false
		}
		num := string((*d)[:n])
		*d = (*d)[n:]
		switch f := r.Field(i); f.Kind() {
		case reflect.Float64:
			v, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return false
			}
			f.SetFloat(v)
		case reflect.Int, reflect.Int64:
			v, err := strconv.ParseInt(num, 10, 64)
			if err != nil || f.OverflowInt(v) {
				return false
			}
			f.SetInt(v)
		case reflect.Uint64:
			v, err := strconv.ParseUint(num, 10, 64)
			if err != nil {
				return false
			}
			f.SetUint(v)
		}
	}
	return cut(d, "}")
}

// cut consumes s from the front of *d, reporting whether it was there.
func cut(d *[]byte, s string) bool {
	if len(*d) < len(s) || string((*d)[:len(s)]) != s {
		return false
	}
	*d = (*d)[len(s):]
	return true
}

// numberLen returns the length of the JSON number at the front of d
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or 0 if none starts
// there.
func numberLen(d []byte) int {
	digits := func(i int) int {
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(i + 1)
	default:
		return 0
	}
	if i < len(d) && d[i] == '.' {
		j := digits(i + 1)
		if j == i+1 {
			return 0
		}
		i = j
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(i)
		if j == i {
			return 0
		}
		i = j
	}
	return i
}

// Put durably stores the replicate vector for hash, atomically replacing
// any previous entry.
func (c *Cache) Put(hash string, results []experiment.Result) error {
	path, err := c.entryPath(hash)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("checkpoint: refusing to cache empty replicate vector for %s", hash)
	}
	data, err := json.Marshal(&cacheEntry{Hash: hash, Results: results})
	if err != nil {
		return fmt.Errorf("checkpoint: marshal cache entry: %w", err)
	}
	if err := WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("checkpoint: cache write: %w", err)
	}
	return nil
}
