package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"secmgpu/internal/config"
)

func TestTraceRoundTrip(t *testing.T) {
	spec, err := ByAbbr("mm")
	if err != nil {
		t.Fatal(err)
	}
	ops := spec.Trace(1, 4, 0.05, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, ops); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !reflect.DeepEqual(ops, got) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		ops := make([]Op, len(raw))
		for i, r := range raw {
			ops[i] = Op{
				Gap:   r,
				Kind:  OpKind(r % 2),
				Home:  uint8(r % 17),
				Page:  r / 7,
				Block: uint8(r % 64),
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, ops); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(ops) {
			return false
		}
		for i := range ops {
			if ops[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOTATRACE----"),
		"short count": append([]byte("SECMGPU1"), 1, 2),
		"truncated":   append([]byte("SECMGPU1"), 5, 0, 0, 0, 1, 2, 3),
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadTraceRejectsInvalidOps(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(traceMagic[:])
	buf.Write([]byte{1, 0, 0, 0})
	// gap=0, kind=9 (invalid), home=1, page=0, block=0
	buf.Write([]byte{0, 0, 0, 0, 9, 1, 0, 0, 0, 0, 0})
	if _, err := ReadTrace(&buf); err == nil {
		t.Error("invalid kind accepted")
	}
}

// TestWriteTraceRejectsUnencodableOps checks the two ways an op could miss
// the file format. A home past a byte cannot be built: Op.Home is a byte,
// and a trace for more than config.MaxGPUs GPUs panics, while one for
// exactly that many round-trips. A bad kind is refused on write.
func TestWriteTraceRejectsUnencodableOps(t *testing.T) {
	spec, err := ByAbbr("fir")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("a trace for %d GPUs was built", config.MaxGPUs+1)
			}
		}()
		spec.Trace(config.MaxGPUs+1, config.MaxGPUs+1, 0.01, 1)
	}()
	ops := spec.Trace(1, config.MaxGPUs, 0.2, 1)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, ops); err != nil {
		t.Fatalf("write %d-GPU trace: %v", config.MaxGPUs, err)
	}
	if got, err := ReadTrace(&buf); err != nil || !reflect.DeepEqual(got, ops) {
		t.Errorf("%d-GPU trace did not round-trip: %v", config.MaxGPUs, err)
	}
	if err := WriteTrace(&buf, []Op{{Kind: OpKind(7), Home: 1}}); err == nil {
		t.Error("bad kind accepted")
	}
}

func TestAnalyzeTrace(t *testing.T) {
	ops := []Op{
		{Gap: 100, Kind: Read, Home: 2, Page: 1, Block: 0},
		{Gap: 1, Kind: Read, Home: 2, Page: 1, Block: 1},
		{Gap: 2, Kind: Write, Home: 2, Page: 1, Block: 2},
		{Gap: 500, Kind: Read, Home: 0, Page: 7, Block: 3},
	}
	st := AnalyzeTrace(ops)
	if st.Ops != 4 || st.Reads != 3 || st.Writes != 1 {
		t.Errorf("counts: %+v", st)
	}
	if st.Bursts != 2 {
		t.Errorf("bursts=%d, want 2", st.Bursts)
	}
	if st.MeanBurst != 2 {
		t.Errorf("mean burst=%v, want 2", st.MeanBurst)
	}
	if st.DestShares[2] != 0.75 || st.DestShares[0] != 0.25 {
		t.Errorf("dest shares=%v", st.DestShares)
	}
	if st.UniquePage != 2 {
		t.Errorf("unique pages=%d, want 2", st.UniquePage)
	}
}
