package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func rec(i int, hash string, energies ...float64) Record {
	rs := make([]experiment.Result, len(energies))
	for j, e := range energies {
		rs[j] = experiment.Result{TotalEnergy: e, Items: i}
	}
	return Record{Index: i, Hash: hash, Results: rs}
}

const hashA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
const hashB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"

// TestJournalRoundTrip appends records, reopens, and replays them intact.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, false)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	want := []Record{rec(2, hashA, 10, 20), rec(0, hashB, 5)}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got, err := LoadJournal(dir)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || got[i].Hash != want[i].Hash || len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
		for r := range want[i].Results {
			if got[i].Results[r] != want[i].Results[r] {
				t.Fatalf("record %d replicate %d = %+v, want %+v", i, r, got[i].Results[r], want[i].Results[r])
			}
		}
	}
}

// TestJournalMissingIsEmpty: resuming against a directory with no journal
// (or no directory at all) is an empty history, not an error.
func TestJournalMissingIsEmpty(t *testing.T) {
	recs, err := LoadJournal(filepath.Join(t.TempDir(), "never-created"))
	if err != nil || recs != nil {
		t.Fatalf("LoadJournal(missing) = %v, %v; want nil, nil", recs, err)
	}
}

// TestJournalTruncatedTailDiscarded: a SIGKILL between write and sync can
// leave a partial final line; replay must keep every complete record and
// drop only the torn tail — even a tail that parses but lacks its newline —
// and resumed appends must land on clean lines of their own.
func TestJournalTruncatedTailDiscarded(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func(line string) string
	}{
		{"half line", func(line string) string { return line[:len(line)/2] }},
		{"missing newline", func(line string) string { return strings.TrimSuffix(line, "\n") }},
		{"unparseable", func(line string) string { return line[:len(line)/2] + "\n" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenJournal(dir, false)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			for i := 0; i < 3; i++ {
				if err := j.Append(rec(i, hashA, float64(i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			j.Close()

			data, err := os.ReadFile(JournalPath(dir))
			if err != nil {
				t.Fatalf("read journal: %v", err)
			}
			// Simulate the crash: keep the first two full lines plus a torn
			// form of the third.
			lines := strings.SplitAfter(string(data), "\n")
			torn := lines[0] + lines[1] + tc.tear(lines[2])
			if err := os.WriteFile(JournalPath(dir), []byte(torn), 0o644); err != nil {
				t.Fatalf("write torn journal: %v", err)
			}

			recs, err := LoadJournal(dir)
			if err != nil {
				t.Fatalf("LoadJournal(torn): %v", err)
			}
			if len(recs) != 2 || recs[0].Index != 0 || recs[1].Index != 1 {
				t.Fatalf("torn journal replayed %+v, want records 0 and 1", recs)
			}

			// Two resumed runs each append a record; both must replay.
			for i := 3; i < 5; i++ {
				j, err := OpenJournal(dir, true)
				if err != nil {
					t.Fatalf("OpenJournal(resume): %v", err)
				}
				if err := j.Append(rec(i, hashB, float64(i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
				j.Close()
			}
			recs, err = LoadJournal(dir)
			if err != nil {
				t.Fatalf("LoadJournal(resumed): %v", err)
			}
			if len(recs) != 4 || recs[0].Index != 0 || recs[1].Index != 1 || recs[2].Index != 3 || recs[3].Index != 4 {
				t.Fatalf("resumed journal replayed %+v, want records 0, 1, 3, 4", recs)
			}
		})
	}
}

// TestJournalMidFileCorruptionFails: garbage that is NOT the final line
// cannot be crash residue — replay must refuse it rather than silently
// dropping completed work.
func TestJournalMidFileCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir, false)
	j.Append(rec(0, hashA, 1))
	j.Append(rec(1, hashA, 2))
	j.Close()

	data, _ := os.ReadFile(JournalPath(dir))
	lines := strings.SplitAfter(string(data), "\n")
	corrupt := lines[0][:len(lines[0])/2] + "\n" + lines[1]
	os.WriteFile(JournalPath(dir), []byte(corrupt), 0o644)

	if _, err := LoadJournal(dir); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("LoadJournal(mid-file corruption) err = %v, want corruption error", err)
	}
}

// TestJournalResumeAppends: reopening with resume=true preserves prior
// records and appends after them; resume=false truncates.
func TestJournalResumeAppends(t *testing.T) {
	dir := t.TempDir()
	j, _ := OpenJournal(dir, false)
	j.Append(rec(0, hashA, 1))
	j.Close()

	j2, err := OpenJournal(dir, true)
	if err != nil {
		t.Fatalf("OpenJournal(resume): %v", err)
	}
	j2.Append(rec(1, hashB, 2))
	j2.Close()

	recs, err := LoadJournal(dir)
	if err != nil {
		t.Fatalf("LoadJournal: %v", err)
	}
	if len(recs) != 2 || recs[0].Index != 0 || recs[1].Index != 1 {
		t.Fatalf("resume-append replayed %+v, want records 0 then 1", recs)
	}

	j3, _ := OpenJournal(dir, false)
	j3.Close()
	recs, err = LoadJournal(dir)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fresh open left %d records (err %v), want truncated empty journal", len(recs), err)
	}
}
