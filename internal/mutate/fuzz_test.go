package mutate

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadSidecar: any input yields batches or an error, never a panic,
// and an accepted input re-encodes through WriteSidecar to a file that
// reads back as equal batches.
func FuzzReadSidecar(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSidecar(&buf, []Batch{
		{Epoch: 7, Muts: []Mutation{
			{Op: OpUpdate, From: 0, To: 1, P: 0.1},
			{Op: OpRemove, From: 1, To: 2},
		}},
		{Epoch: 8, Muts: []Mutation{{Op: OpAdd, From: 2, To: 3, P: 1e-9}}},
		{Epoch: 9},
	}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(SidecarMagic + "\n"))
	f.Add([]byte(SidecarMagic + "\nbatch 0 9223372036854775807\n"))
	for n := 1; n < len(valid); n += 5 {
		f.Add(valid[:n])
	}
	for i := 0; i < len(valid); i += 3 {
		mut := bytes.Clone(valid)
		mut[i] ^= 1 << (i % 8)
		f.Add(mut)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, err := ReadSidecar(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteSidecar(&out, batches); err != nil {
			t.Fatalf("accepted batches do not encode: %v", err)
		}
		again, err := ReadSidecar(&out)
		if err != nil {
			t.Fatalf("re-encoded sidecar rejected: %v\n%s", err, out.Bytes())
		}
		if !equalBatches(batches, again) {
			t.Fatalf("round trip changed the batches:\n%+v\n%+v", batches, again)
		}
	})
}

// equalBatches compares batches with probabilities by bits, so a NaN read
// from the file equals itself.
func equalBatches(a, b []Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch || len(a[i].Muts) != len(b[i].Muts) {
			return false
		}
		for j, m := range a[i].Muts {
			n := b[i].Muts[j]
			if m.Op != n.Op || m.From != n.From || m.To != n.To || math.Float64bits(m.P) != math.Float64bits(n.P) {
				return false
			}
		}
	}
	return true
}
