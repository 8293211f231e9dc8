package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

func testEntry(i int) Entry {
	return Entry{
		UnixMS:      int64(1000 + i*25),
		QueryID:     "q-" + strconv.Itoa(i),
		Fingerprint: "q1|rmax=6|cost=0|4:carl|6:hector",
		Keywords:    []string{"carl", "hector"},
		Rmax:        6,
		Cost:        "sum",
		Algo:        AlgoTopK,
		K:           10,
		Limits:      &Limits{MaxResults: 50},
		Results:     3,
		Complete:    true,
		LatencyMS:   1.25,
		InitMS:      0.5,
	}
}

// TestReadsJournalWithKeywordInit: a line written before the per-keyword
// init spend was dropped from Entry (it carries "keyword_init") still
// verifies and decodes — the CRC covers the bytes as written and the
// unknown field is ignored.
func TestReadsJournalWithKeywordInit(t *testing.T) {
	const line = `{"unix_ms":1025,"qid":"q-1","fp":"q1|rmax=6|cost=0|4:carl|6:hector","keywords":["carl","hector"],"rmax":6,"cost":"sum","algo":"topk","k":10,"limits":{"max_results":50},"results":3,"complete":true,"latency_ms":1.25,"init_ms":0.5,"keyword_init":[{"term":"carl","runs":1,"visits":7,"relaxations":12,"heap_ops":14,"wall_ms":0.2},{"term":"hector","runs":1,"visits":5,"relaxations":9,"heap_ops":10,"wall_ms":0.15}],"seq":7,"crc":4045119743}` + "\n"
	got, err := ReadJournal(strings.NewReader(line))
	if err != nil || len(got) != 1 {
		t.Fatalf("reading a journal line with keyword_init: %d entries, err %v", len(got), err)
	}
	want := testEntry(1)
	want.Seq = 7
	if !reflect.DeepEqual(got[0], want) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", got[0], want)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	e := testEntry(1)
	e.Seq = 42
	line, err := EncodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournal(bytes.NewReader(append(line, '\n')))
	if err != nil || len(got) != 1 {
		t.Fatalf("reading one encoded entry: %d entries, err %v", len(got), err)
	}
	if got[0].Seq != 42 {
		t.Fatalf("decoded seq %d, want 42", got[0].Seq)
	}
	again, _ := EncodeEntry(got[0])
	if !bytes.Equal(again, line) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", again, line)
	}
}

func writeJournal(t *testing.T, path string, n int, cfg JournalConfig) *Journal {
	t.Helper()
	cfg.Path = path
	j, err := OpenJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		j.Offer(testEntry(i))
	}
	return j
}

// TestJournalGoldenPrefix mirrors the delta log's recovery contract:
// every truncation prefix of a journal file must read back cleanly as
// a prefix of the recorded entries — a torn tail is dropped, never an
// error, never a wrong record.
func TestJournalGoldenPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.ndjson")
	j := writeJournal(t, path, 8, JournalConfig{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	complete, err := ReadJournal(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if len(complete) != 8 {
		t.Fatalf("recorded %d entries, want 8", len(complete))
	}
	for cut := 0; cut <= len(full); cut++ {
		got, err := ReadJournal(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("prefix %d/%d: %v", cut, len(full), err)
		}
		// The recovered entries must be exactly the complete lines inside
		// the prefix.
		want := bytes.Count(full[:cut], []byte("\n"))
		if len(got) != want {
			t.Fatalf("prefix %d: recovered %d entries, want %d", cut, len(got), want)
		}
		for k := range got {
			if got[k].Seq != complete[k].Seq || got[k].QueryID != complete[k].QueryID {
				t.Fatalf("prefix %d entry %d: got seq %d qid %s", cut, k, got[k].Seq, got[k].QueryID)
			}
		}
	}
}

func TestJournalRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.ndjson")
	// Lines are ~260 bytes; cap at 2KiB so 40 records rotate repeatedly.
	j := writeJournal(t, path, 40, JournalConfig{MaxBytes: 2 << 10})
	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Rotations == 0 {
		t.Fatal("expected at least one rotation")
	}
	if st.Bytes > 2<<10 {
		t.Fatalf("current file %d bytes exceeds bound", st.Bytes)
	}
	prev, err := ReadJournalFile(path + ".1")
	if err != nil {
		t.Fatalf("rotated file: %v", err)
	}
	cur, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) == 0 || len(cur) == 0 {
		t.Fatalf("rotation split: prev=%d cur=%d", len(prev), len(cur))
	}
	// Sequence continuity across the boundary.
	if cur[0].Seq != prev[len(prev)-1].Seq+1 {
		t.Fatalf("seq gap across rotation: %d then %d", prev[len(prev)-1].Seq, cur[0].Seq)
	}
	if last := cur[len(cur)-1].Seq; last != st.LastSeq || st.LastSeq != 40 {
		t.Fatalf("last seq %d (stats %d), want 40", last, st.LastSeq)
	}
}

func TestJournalSeqResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.ndjson")
	j := writeJournal(t, path, 3, JournalConfig{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash: torn final line on disk.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(JournalConfig{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	j2.Offer(testEntry(100))
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := j2.Stats(); st.LastSeq != 4 {
		t.Fatalf("resumed seq %d, want 4", st.LastSeq)
	}
	// Reopen truncated the torn tail, so the whole file reads cleanly:
	// the 3 original records plus the resumed one at seq 4.
	got, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Seq != 4 || got[3].QueryID != "q-100" {
		t.Fatalf("resumed journal: %d entries, last %+v", len(got), got[len(got)-1])
	}

	// A journal from before the shared frame (seq first, no seq in the
	// trailing frame) is refused rather than appended to: new lines
	// behind lines no reader accepts would be lost with them.
	old := filepath.Join(t.TempDir(), "old.ndjson")
	if err := os.WriteFile(old, []byte(`{"seq":1,"ts":5,"qid":"q-1","crc":123}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := OpenJournal(JournalConfig{Path: old}); err == nil {
		j.Close()
		t.Fatal("OpenJournal resumed a pre-frame journal")
	}
}

func TestJournalStampsTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wl.ndjson")
	fixed := time.UnixMilli(777)
	j, err := OpenJournal(JournalConfig{Path: path, now: func() time.Time { return fixed }})
	if err != nil {
		t.Fatal(err)
	}
	e := testEntry(0)
	e.UnixMS = 0
	j.Offer(e)
	j.Offer(testEntry(1)) // pre-stamped: must keep its own time
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].UnixMS != 777 || got[1].UnixMS != 1025 {
		t.Fatalf("timestamps %d, %d; want 777, 1025", got[0].UnixMS, got[1].UnixMS)
	}
}
