package prof

import (
	"strings"
	"testing"
	"time"
)

func TestGroupSumsParts(t *testing.T) {
	f := Group("root",
		Footprint{Name: "a", Bytes: 100, Items: 3},
		Group("b",
			Footprint{Name: "b1", Bytes: 40},
			Footprint{Name: "b2", Bytes: 2},
		),
	)
	if f.Bytes != 142 {
		t.Fatalf("root bytes = %d, want 142", f.Bytes)
	}
	assertSums(t, f)
	if b, ok := f.Find("b"); !ok || b.Bytes != 42 {
		t.Fatalf("Find(b) = %+v, %v", b, ok)
	}
	if _, ok := f.Find("missing"); ok {
		t.Fatal("Find(missing) succeeded")
	}
}

// assertSums checks the accounting invariant on every composite node:
// Bytes equals the sum of the parts' Bytes, recursively.
func assertSums(t *testing.T, f Footprint) {
	t.Helper()
	if len(f.Parts) == 0 {
		return
	}
	var sum int64
	for _, p := range f.Parts {
		sum += p.Bytes
		assertSums(t, p)
	}
	if f.Bytes != sum {
		t.Fatalf("%s: bytes %d != sum of parts %d", f.Name, f.Bytes, sum)
	}
}

func TestSliceAndStringBytes(t *testing.T) {
	if got := SliceBytes(10, 4); got != 64 {
		t.Fatalf("SliceBytes(10,4) = %d, want 64", got)
	}
	if got := SliceBytes(0, 16); got != 24 {
		t.Fatalf("SliceBytes(0,16) = %d, want 24 (header only)", got)
	}
	if got := StringBytes("abcd"); got != 20 {
		t.Fatalf("StringBytes(abcd) = %d, want 20", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		512:             "512 B",
		2048:            "2.0 KiB",
		3 << 20:         "3.0 MiB",
		5 << 30:         "5.0 GiB",
		1536:            "1.5 KiB",
		(3 << 20) + 512: "3.0 MiB",
	}
	for n, want := range cases {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestWriteText(t *testing.T) {
	f := Group("root", Footprint{Name: "part", Bytes: 2048, Items: 7})
	var sb strings.Builder
	f.WriteText(&sb)
	out := sb.String()
	if !strings.Contains(out, "root") || !strings.Contains(out, "part") {
		t.Fatalf("report missing names:\n%s", out)
	}
	if !strings.Contains(out, "(7 items)") {
		t.Fatalf("report missing item count:\n%s", out)
	}
	if !strings.Contains(out, "  part") {
		t.Fatalf("part not indented:\n%s", out)
	}
}

func TestStagesAccumulate(t *testing.T) {
	st := NewStages()
	st.Add("to_graph", 5*time.Millisecond)
	st.Add("to_graph", 7*time.Millisecond)
	st.Add("repair", 100*time.Microsecond)
	end := st.Timer("publish")
	end()
	got := st.SnapshotMS()
	if got["to_graph"] != 12 {
		t.Fatalf("to_graph = %v, want 12", got["to_graph"])
	}
	if got["repair"] != 0.1 {
		t.Fatalf("repair = %v, want 0.1", got["repair"])
	}
	if _, ok := got["publish"]; !ok {
		t.Fatal("publish stage missing")
	}
	if len(got) != 3 {
		t.Fatalf("stages = %v, want 3", got)
	}
}

func TestStagesConcurrent(t *testing.T) {
	st := NewStages()
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				st.Add("s", time.Millisecond)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if got := st.SnapshotMS()["s"]; got != 4000 {
		t.Fatalf("s = %v, want 4000", got)
	}
}

func TestNilStagesSafe(t *testing.T) {
	var st *Stages
	st.Add("x", time.Second)
	st.Timer("y")()
	if m := st.SnapshotMS(); m != nil {
		t.Fatalf("nil snapshot = %v, want nil", m)
	}
}

// TestDisabledStagesZeroAlloc locks the zero-overhead-when-disabled
// guarantee for the accounting path, mirroring the obs trace gate:
// instrumented pipelines pass a nil *Stages when accounting is off and
// must not allocate for it.
func TestDisabledStagesZeroAlloc(t *testing.T) {
	var st *Stages
	allocs := testing.AllocsPerRun(1000, func() {
		end := st.Timer("stage")
		st.Add("stage", time.Millisecond)
		_ = st.SnapshotMS()
		end()
	})
	if allocs != 0 {
		t.Fatalf("disabled stages allocated %v per run, want 0", allocs)
	}
}
