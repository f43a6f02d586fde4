package exec

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/types"
)

// Spill-to-storage for hash tables. When a join build side or an aggregation
// group table outgrows Engine.SpillBytes, the operator partitions its input
// by key hash into temp-file streams (arrowipc framing, the same wire format
// the sandbox boundary uses) and processes each partition recursively. Rows
// carry a synthetic __rid BIGINT column recording their global input
// position, so merging partition outputs by rid reproduces the exact row
// order the in-memory path emits — spilled runs stay byte-identical.

const (
	defaultSpillBytes = 256 << 20 // per-operator hash-table budget when Engine.SpillBytes is 0
	spillFanout       = 8         // partitions per spill level
	maxSpillLevel     = 6         // recursion cap; beyond this a partition is processed in memory
)

// spillPartOf selects a partition from the top hash bits. Each recursion
// level consumes the next 3 bits, disjoint from the low bits hash tables use
// for bucket addressing, so re-partitioning actually subdivides.
func spillPartOf(h uint64, level int) int {
	return int((h >> (61 - 3*level)) & (spillFanout - 1))
}

// spillFile is one temp-file stream of batches with a fixed schema. Write
// everything, then call reader() exactly once; cleanup() is idempotent and
// safe at any point.
type spillFile struct {
	schema *types.Schema
	f      *os.File
	bw     *bufio.Writer
	w      *arrowipc.Writer
	rows   int64
	bytes  int64
}

type countingWriter struct {
	w io.Writer
	n *int64
}

func (cw countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	*cw.n += int64(n)
	return n, err
}

func newSpillFile(schema *types.Schema) (*spillFile, error) {
	f, err := os.CreateTemp("", "lakeguard-spill-*")
	if err != nil {
		return nil, fmt.Errorf("exec: create spill file: %w", err)
	}
	sf := &spillFile{schema: schema, f: f}
	sf.bw = bufio.NewWriterSize(countingWriter{w: f, n: &sf.bytes}, 1<<16)
	w, err := arrowipc.NewWriter(sf.bw, schema)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("exec: open spill writer: %w", err)
	}
	sf.w = w
	return sf, nil
}

func (s *spillFile) write(b *types.Batch) error {
	s.rows += int64(b.NumRows())
	if err := s.w.WriteBatch(b); err != nil {
		return fmt.Errorf("exec: spill write: %w", err)
	}
	return nil
}

// reader finalizes the stream and returns a pull function over its batches
// (io.EOF at end). The spill file still needs cleanup() afterwards.
func (s *spillFile) reader() (func() (*types.Batch, error), error) {
	if s.w != nil {
		if err := s.w.Close(); err != nil {
			return nil, fmt.Errorf("exec: finish spill stream: %w", err)
		}
		if err := s.bw.Flush(); err != nil {
			return nil, fmt.Errorf("exec: flush spill file: %w", err)
		}
		s.w = nil
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rd, err := arrowipc.NewReader(bufio.NewReaderSize(s.f, 1<<16))
	if err != nil {
		return nil, fmt.Errorf("exec: open spill reader: %w", err)
	}
	return rd.Next, nil
}

func (s *spillFile) cleanup() {
	if s == nil || s.f == nil {
		return
	}
	name := s.f.Name()
	s.f.Close()
	os.Remove(name)
	s.f = nil
}

// spillPartitions scatters batches into spillFanout per-partition files,
// created lazily. The hash decides the partition; within a partition, input
// order is preserved. Every created file is reported through track, so the
// owning operator can account for it and clean it up on any exit path.
type spillPartitions struct {
	schema *types.Schema
	level  int
	track  func(*spillFile)
	parts  [spillFanout]*spillFile
}

func newSpillPartitions(schema *types.Schema, level int, track func(*spillFile)) *spillPartitions {
	return &spillPartitions{schema: schema, level: level, track: track}
}

func (sp *spillPartitions) part(p int) (*spillFile, error) {
	if sp.parts[p] == nil {
		sf, err := newSpillFile(sp.schema)
		if err != nil {
			return nil, err
		}
		sp.parts[p] = sf
		if sp.track != nil {
			sp.track(sf)
		}
	}
	return sp.parts[p], nil
}

func (sp *spillPartitions) scatter(b *types.Batch, hashes []uint64) error {
	n := b.NumRows()
	var idx [spillFanout][]int
	for i := 0; i < n; i++ {
		p := spillPartOf(hashes[i], sp.level)
		idx[p] = append(idx[p], i)
	}
	for p, rows := range idx {
		if len(rows) == 0 {
			continue
		}
		pf, err := sp.part(p)
		if err != nil {
			return err
		}
		sub := b
		if len(rows) != n {
			sub = b.Gather(rows)
		}
		if err := pf.write(sub); err != nil {
			return err
		}
	}
	return nil
}

// Size estimators used for spill thresholds. Deliberately cheap and
// deterministic: payload bytes, not allocator truth.

func colBytes(c *types.Column) int64 {
	var b int64
	switch c.Kind() {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		b = int64(8 * c.Len())
	case types.KindFloat64:
		b = int64(8 * c.Len())
	case types.KindString, types.KindBinary:
		b = int64(16 * c.Len())
		for _, s := range c.Strings() {
			b += int64(len(s))
		}
	}
	if c.NullMask() != nil {
		b += int64(c.Len())
	}
	return b
}

func batchBytes(b *types.Batch) int64 {
	var n int64
	for _, c := range b.Cols {
		n += colBytes(c)
	}
	return n
}

func colsBytes(cols []*types.Column) int64 {
	var n int64
	for _, c := range cols {
		n += colBytes(c)
	}
	return n
}

// schemaWithRID appends the synthetic row-id column spilled rows carry.
func schemaWithRID(s *types.Schema) *types.Schema {
	fields := make([]types.Field, 0, len(s.Fields)+1)
	fields = append(fields, s.Fields...)
	fields = append(fields, types.Field{Name: "__rid", Kind: types.KindInt64})
	return types.NewSchema(fields...)
}

// appendRIDCol returns b's columns plus a rid column, as a batch over schema.
func appendRIDCol(schema *types.Schema, b *types.Batch, rids []int64) *types.Batch {
	cols := make([]*types.Column, 0, len(b.Cols)+1)
	cols = append(cols, b.Cols...)
	cols = append(cols, types.NewInt64Column(types.KindInt64, rids, nil))
	return &types.Batch{Schema: schema, Cols: cols}
}

// ridMerge merges several batch streams whose last column is an ascending
// __rid BIGINT into one globally rid-ordered stream, stripping the rid. Rids
// are globally unique across streams (each input row lands in exactly one
// partition), so the merge is deterministic.
type ridMerge struct {
	out     *types.Schema
	streams []*ridStream
}

type ridStream struct {
	pull func() (*types.Batch, error)
	b    *types.Batch
	pos  int
	rids []int64
}

func (s *ridStream) advance() error {
	for s.b == nil || s.pos >= s.b.NumRows() {
		b, err := s.pull()
		if err == io.EOF {
			s.b = nil
			return nil
		}
		if err != nil {
			return err
		}
		s.b = b
		s.pos = 0
		s.rids = b.Cols[len(b.Cols)-1].Int64s()
	}
	return nil
}

// newRidMerge takes the output schema (without rid) and one pull per stream.
func newRidMerge(out *types.Schema, pulls []func() (*types.Batch, error)) (*ridMerge, error) {
	m := &ridMerge{out: out}
	for _, pull := range pulls {
		s := &ridStream{pull: pull}
		if err := s.advance(); err != nil {
			return nil, err
		}
		if s.b != nil {
			m.streams = append(m.streams, s)
		}
	}
	return m, nil
}

// Next emits up to types.DefaultBatchSize rows in global rid order.
func (m *ridMerge) Next() (*types.Batch, error) {
	if len(m.streams) == 0 {
		return nil, io.EOF
	}
	bb := types.NewBatchBuilder(m.out, types.DefaultBatchSize)
	ncols := len(m.out.Fields)
	for bb.Len() < types.DefaultBatchSize && len(m.streams) > 0 {
		best := 0
		for i := 1; i < len(m.streams); i++ {
			if m.streams[i].rids[m.streams[i].pos] < m.streams[best].rids[m.streams[best].pos] {
				best = i
			}
		}
		s := m.streams[best]
		for c := 0; c < ncols; c++ {
			bb.Column(c).Append(s.b.Cols[c].Value(s.pos))
		}
		s.pos++
		if s.pos >= s.b.NumRows() {
			if err := s.advance(); err != nil {
				return nil, err
			}
			if s.b == nil {
				m.streams = append(m.streams[:best], m.streams[best+1:]...)
			}
		}
	}
	if bb.Len() == 0 {
		return nil, io.EOF
	}
	return bb.Build(), nil
}
