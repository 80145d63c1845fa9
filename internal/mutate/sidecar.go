package mutate

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"relcomp/internal/uncertain"
)

// Sidecar format: the on-disk mutation log that rides next to a snapshot
// (<snapshot>.mutlog by convention) so a -snapshot start can replay
// itself from the manifest epoch to the live epoch. The format is
// line-oriented text — a mutation log is small relative to the snapshot
// it chases, and a format an operator can read and truncate with a text
// editor beats a binary one here:
//
//	RELMUT1
//	batch <epoch> <count>
//	u <from> <to> <p>      (update)
//	a <from> <to> <p>      (add)
//	r <from> <to>          (remove)
//
// Probabilities are written with strconv 'g'/-1 so they round-trip to
// the exact float64, preserving the bit-identity contract across a
// write/replay cycle. Epochs within a file must be contiguous; chaining
// against the snapshot's manifest epoch is the caller's check
// (relsnap verify, the server's replay path).

// SidecarMagic is the first line of every sidecar file.
const SidecarMagic = "RELMUT1"

// sidecarPrealloc caps the mutations ReadSidecar preallocates for one
// batch from its header's count.
const sidecarPrealloc = 1024

// SidecarPath returns the conventional sidecar path for a snapshot file.
func SidecarPath(snapshot string) string { return snapshot + ".mutlog" }

// WriteSidecarHeader starts a new sidecar file.
func WriteSidecarHeader(w io.Writer) error {
	_, err := io.WriteString(w, SidecarMagic+"\n")
	return err
}

// AppendSidecar appends one committed batch. The caller is responsible
// for ordering (epochs must stay contiguous) and durability (flush).
func AppendSidecar(w io.Writer, b Batch) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "batch %d %d\n", b.Epoch, len(b.Muts))
	for _, m := range b.Muts {
		switch m.Op {
		case OpUpdate:
			fmt.Fprintf(&sb, "u %d %d %s\n", m.From, m.To, strconv.FormatFloat(m.P, 'g', -1, 64))
		case OpAdd:
			fmt.Fprintf(&sb, "a %d %d %s\n", m.From, m.To, strconv.FormatFloat(m.P, 'g', -1, 64))
		case OpRemove:
			fmt.Fprintf(&sb, "r %d %d\n", m.From, m.To)
		default:
			return fmt.Errorf("mutate: sidecar cannot encode op %d", m.Op)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteSidecar writes a complete sidecar file: header plus every batch.
func WriteSidecar(w io.Writer, batches []Batch) error {
	if err := WriteSidecarHeader(w); err != nil {
		return err
	}
	for _, b := range batches {
		if err := AppendSidecar(w, b); err != nil {
			return err
		}
	}
	return nil
}

// ReadSidecar parses a sidecar file, checking the magic, per-line shape,
// and that batch epochs are contiguous within the file. It returns the
// batches in order; an empty file (header only) returns nil.
func ReadSidecar(r io.Reader) ([]Batch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	next := func() (string, bool) {
		for sc.Scan() {
			line++
			s := strings.TrimSpace(sc.Text())
			if s == "" || strings.HasPrefix(s, "#") {
				continue
			}
			return s, true
		}
		return "", false
	}

	head, ok := next()
	if !ok || head != SidecarMagic {
		return nil, fmt.Errorf("mutate: sidecar line %d: bad magic (want %q)", line, SidecarMagic)
	}

	var batches []Batch
	for {
		s, ok := next()
		if !ok {
			break
		}
		var epoch uint64
		var count int
		if n, err := fmt.Sscanf(s, "batch %d %d", &epoch, &count); n != 2 || err != nil {
			return nil, fmt.Errorf("mutate: sidecar line %d: want %q, got %q", line, "batch <epoch> <count>", s)
		}
		if count < 0 {
			return nil, fmt.Errorf("mutate: sidecar line %d: negative count %d", line, count)
		}
		if len(batches) > 0 && epoch != batches[len(batches)-1].Epoch+1 {
			return nil, fmt.Errorf("mutate: sidecar line %d: epoch %d does not chain from %d", line, epoch, batches[len(batches)-1].Epoch)
		}
		// The count is untrusted: preallocate at most sidecarPrealloc
		// entries and let append grow a batch that really is larger, so a
		// corrupt count fails as truncation instead of as an allocation.
		b := Batch{Epoch: epoch, Muts: make([]Mutation, 0, min(count, sidecarPrealloc))}
		for i := 0; i < count; i++ {
			s, ok := next()
			if !ok {
				return nil, fmt.Errorf("mutate: sidecar truncated inside batch %d (%d/%d mutations)", epoch, i, count)
			}
			m, err := parseMutLine(s)
			if err != nil {
				return nil, fmt.Errorf("mutate: sidecar line %d: %v", line, err)
			}
			b.Muts = append(b.Muts, m)
		}
		batches = append(batches, b)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mutate: sidecar read: %v", err)
	}
	return batches, nil
}

func parseMutLine(s string) (Mutation, error) {
	f := strings.Fields(s)
	if len(f) < 3 {
		return Mutation{}, fmt.Errorf("short mutation line %q", s)
	}
	from, err1 := strconv.ParseInt(f[1], 10, 32)
	to, err2 := strconv.ParseInt(f[2], 10, 32)
	if err1 != nil || err2 != nil {
		return Mutation{}, fmt.Errorf("bad endpoints in %q", s)
	}
	m := Mutation{From: uncertain.NodeID(from), To: uncertain.NodeID(to)}
	switch f[0] {
	case "u", "a":
		if len(f) != 4 {
			return Mutation{}, fmt.Errorf("want \"%s <from> <to> <p>\", got %q", f[0], s)
		}
		p, err := strconv.ParseFloat(f[3], 64)
		if err != nil {
			return Mutation{}, fmt.Errorf("bad probability in %q", s)
		}
		m.P = p
		if f[0] == "u" {
			m.Op = OpUpdate
		} else {
			m.Op = OpAdd
		}
	case "r":
		if len(f) != 3 {
			return Mutation{}, fmt.Errorf("want \"r <from> <to>\", got %q", s)
		}
		m.Op = OpRemove
	default:
		return Mutation{}, fmt.Errorf("unknown mutation verb %q", f[0])
	}
	return m, nil
}
