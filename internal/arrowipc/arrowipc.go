// Package arrowipc implements a compact columnar record-batch wire format in
// the spirit of Arrow IPC. A stream is a schema message followed by zero or
// more record-batch messages and an end marker; each message is a
// length-prefixed frame. The format is used for Connect query results, Delta
// data files, and sandbox IPC, so encode/decode must be an exact identity on
// every batch (property-tested and fuzzed).
//
// Frame layout (all integers little-endian):
//
//	frame     := u32 length | u8 msgType | payload
//	msgType   := 0 schema | 1 batch | 2 end
//	schema    := u16 nFields | field*
//	field     := u16 nameLen | name | u8 kind | u8 nullable
//	batch     := u32 nRows | column*
//	column    := u8 hasNulls | [bitmapBytes] | buffer
//	buffer    := ints: 8*n bytes | floats: 8*n bytes
//	           | strings: u32 offsets[n+1] | bytes
//	           | nulls: empty (the bitmap is always present when n > 0)
//
// Decoding is columnar: a stream's batch frames decode straight into one
// batch whose columns are allocated once, sized from the frames' row counts,
// and each string column becomes one string per frame that its rows slice.
package arrowipc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"lakeguard/internal/types"
)

// Message types.
const (
	msgSchema byte = 0
	msgBatch  byte = 1
	msgEnd    byte = 2
)

// MaxFrameSize bounds a single frame to guard against corrupted length
// prefixes (64 MiB).
const MaxFrameSize = 64 << 20

// frameHeaderLen is the u32 length plus the u8 message type.
const frameHeaderLen = 5

// readChunk is how much of a frame body a stream reader reserves before the
// bytes arrive; larger bodies grow as they are read, so a corrupt length
// prefix costs at most this much memory, not MaxFrameSize.
const readChunk = 1 << 20

// ErrClosed is returned when reading past the end marker.
var ErrClosed = errors.New("arrowipc: stream closed")

// writeBufs holds frame buffers between Writers: a Writer takes one when it
// opens and gives it back at Close, so a server streaming one response after
// another grows a frame buffer only for a frame larger than it has held.
var writeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Writer encodes a stream of batches sharing one schema. Its frame buffer
// comes from writeBufs and goes back there at Close; a Writer that is never
// closed leaves its buffer to the garbage collector.
type Writer struct {
	w      io.Writer
	schema *types.Schema
	buf    *[]byte // nil once closed
}

// NewWriter starts a stream by writing the schema message.
func NewWriter(w io.Writer, schema *types.Schema) (*Writer, error) {
	buf := writeBufs.Get().(*[]byte)
	frame, err := appendSchemaFrame((*buf)[:0], schema)
	if err == nil {
		*buf = frame
		_, err = w.Write(frame)
	}
	if err != nil {
		writeBufs.Put(buf)
		return nil, err
	}
	return &Writer{w: w, schema: schema, buf: buf}, nil
}

// WriteBatch appends one record batch to the stream.
func (wr *Writer) WriteBatch(b *types.Batch) error {
	if wr.buf == nil {
		return ErrClosed
	}
	if !b.Schema.Equal(wr.schema) {
		return fmt.Errorf("arrowipc: batch schema %s does not match stream schema %s", b.Schema, wr.schema)
	}
	frame, err := appendBatchFrame((*wr.buf)[:0], b, batchLen(b))
	if err != nil {
		return err
	}
	*wr.buf = frame
	_, err = wr.w.Write(frame)
	return err
}

// Close writes the end marker and gives the frame buffer back. The
// underlying writer is not closed.
func (wr *Writer) Close() error {
	if wr.buf == nil {
		return nil
	}
	end, _ := appendFrameHeader((*wr.buf)[:0], msgEnd, 0) // an empty payload is within every limit
	_, err := wr.w.Write(end)
	writeBufs.Put(wr.buf)
	wr.buf = nil
	return err
}

// Reader decodes a stream written by Writer, either from an io.Reader or —
// for DecodeBatch — in place from a byte slice. A stream reader reads frame
// bodies into a buffer it owns: Next reads each frame over the one before,
// and Drain lays every batch frame of the stream side by side in it. No
// batch a Reader returns shares memory with that buffer.
type Reader struct {
	r      io.Reader
	data   []byte // the unread stream when r is nil
	buf    []byte // frame bodies read from r
	hdr    [4]byte
	schema *types.Schema
	done   bool
}

// NewReader consumes the schema message and prepares to read batches.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderBuffer(r, nil)
}

// NewReaderBuffer is NewReader reading frame bodies into buf's memory. A
// caller that reads one stream after another passes each reader the buffer
// Buffer returned from the reader before, so only a stream larger than all
// before it grows the buffer.
func NewReaderBuffer(r io.Reader, buf []byte) (*Reader, error) {
	return openReader(&Reader{r: r, buf: buf[:0]})
}

func openReader(rd *Reader) (*Reader, error) {
	msgType, payload, err := rd.readFrame(0)
	if err != nil {
		return nil, err
	}
	if msgType != msgSchema {
		return nil, fmt.Errorf("arrowipc: expected schema message, got type %d", msgType)
	}
	schema, err := decodeSchema(payload)
	if err != nil {
		return nil, err
	}
	rd.schema = schema
	return rd, nil
}

// Schema returns the stream schema.
func (rd *Reader) Schema() *types.Schema { return rd.schema }

// Buffer returns the reader's frame buffer, for a later NewReaderBuffer.
func (rd *Reader) Buffer() []byte { return rd.buf }

// Next returns the next batch, or io.EOF after the end marker. A stream that
// stops before its end marker fails with io.ErrUnexpectedEOF.
func (rd *Reader) Next() (*types.Batch, error) {
	if rd.done {
		return nil, io.EOF
	}
	msgType, payload, err := rd.readFrame(0)
	if err != nil {
		return nil, err
	}
	switch msgType {
	case msgBatch:
		b, _, err := decodeFrames(make([]colSink, rd.schema.Len()), rd.schema, [][]byte{payload})
		if err != nil {
			return nil, err
		}
		return b, nil
	case msgEnd:
		rd.done = true
		return nil, io.EOF
	}
	return nil, fmt.Errorf("arrowipc: unexpected message type %d", msgType)
}

// Drain reads every remaining frame and decodes all their batches into one
// batch, presized from the frames' row counts, with no batch per frame and
// no concat. frames is the number of batch frames in that batch. When the
// stream breaks or a frame is corrupt, Drain returns the batch of the frames
// before the fault, their count, and the error — so a re-sent stream can be
// resumed at batch index frames.
func (rd *Reader) Drain() (b *types.Batch, frames int, err error) {
	var payloads [][]byte
	var readErr error
	at := 0 // where the next frame goes: batch frames sit side by side
	for !rd.done && readErr == nil {
		msgType, payload, ferr := rd.readFrame(at)
		switch {
		case ferr != nil:
			readErr = ferr
		case msgType == msgBatch:
			payloads = append(payloads, payload)
			at += 1 + len(payload)
		case msgType == msgEnd:
			rd.done = true
		default:
			readErr = fmt.Errorf("arrowipc: unexpected message type %d", msgType)
		}
	}
	// A frame read after a payload may have moved the buffer: point every
	// payload at its bytes in the buffer as it is now.
	at = 0
	for i, p := range payloads {
		payloads[i] = rd.buf[at+1 : at+1+len(p)]
		at += 1 + len(p)
	}
	b, frames, err = decodeFrames(make([]colSink, rd.schema.Len()), rd.schema, payloads)
	if err == nil {
		err = readErr
	}
	return b, frames, err
}

// readFrame returns the next frame's message type and payload. A streamed
// frame's body is read into the reader's buffer at offset at.
func (rd *Reader) readFrame(at int) (byte, []byte, error) {
	if rd.r == nil {
		return rd.sliceFrame()
	}
	if _, err := io.ReadFull(rd.r, rd.hdr[:]); err != nil {
		return 0, nil, noEOF(err)
	}
	n := binary.LittleEndian.Uint32(rd.hdr[:])
	if n == 0 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("arrowipc: invalid frame length %d", n)
	}
	if err := rd.readBody(at, int(n)); err != nil {
		return 0, nil, err
	}
	body := rd.buf[at:]
	return body[0], body[1:], nil
}

// sliceFrame returns the next frame of an in-place stream without copying.
func (rd *Reader) sliceFrame() (byte, []byte, error) {
	if len(rd.data) < 4 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(rd.data)
	if n == 0 || n > MaxFrameSize {
		return 0, nil, fmt.Errorf("arrowipc: invalid frame length %d", n)
	}
	if int(n) > len(rd.data)-4 {
		return 0, nil, io.ErrUnexpectedEOF
	}
	body := rd.data[4 : 4+n]
	rd.data = rd.data[4+n:]
	return body[0], body[1:], nil
}

// readBody reads an n-byte frame body into rd.buf[at:at+n]. Room the buffer
// lacks is reserved at most readChunk ahead of the bytes that have arrived,
// so a corrupt length prefix costs at most that, not MaxFrameSize. A buffer
// that must grow at least doubles, so filling it costs a few copies of the
// bytes that arrived, not one allocation per frame.
func (rd *Reader) readBody(at, n int) error {
	end := at + n
	rd.buf = rd.buf[:at]
	for len(rd.buf) < end {
		have := len(rd.buf)
		want := min(end, max(have+readChunk, cap(rd.buf)))
		if want > cap(rd.buf) {
			grown := make([]byte, want, max(want, 2*cap(rd.buf)))
			copy(grown, rd.buf)
			rd.buf = grown
		}
		rd.buf = rd.buf[:want]
		if _, err := io.ReadFull(rd.r, rd.buf[have:]); err != nil {
			return noEOF(err)
		}
	}
	return nil
}

// noEOF turns a clean EOF into io.ErrUnexpectedEOF: a stream may end only
// at its end marker, so running out of bytes anywhere else is truncation.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// --- encoding ---

// appendFrameHeader grows buf to hold a whole frame with a plen-byte payload
// and appends the frame header.
func appendFrameHeader(buf []byte, msgType byte, plen int) ([]byte, error) {
	if plen+1 > MaxFrameSize {
		return buf, fmt.Errorf("arrowipc: frame of %d bytes exceeds limit", plen)
	}
	buf = slices.Grow(buf, frameHeaderLen+plen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(plen+1))
	return append(buf, msgType), nil
}

func schemaLen(s *types.Schema) int {
	n := 2
	for _, f := range s.Fields {
		n += 4 + len(f.Name)
	}
	return n
}

func appendSchemaFrame(buf []byte, s *types.Schema) ([]byte, error) {
	if len(s.Fields) > math.MaxUint16 {
		return nil, fmt.Errorf("arrowipc: %d fields exceed the format's limit", len(s.Fields))
	}
	buf, err := appendFrameHeader(buf, msgSchema, schemaLen(s))
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s.Fields)))
	for _, f := range s.Fields {
		if len(f.Name) > math.MaxUint16 {
			return nil, fmt.Errorf("arrowipc: field name of %d bytes exceeds the format's limit", len(f.Name))
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(f.Name)))
		buf = append(buf, f.Name...)
		buf = append(buf, byte(f.Kind))
		if f.Nullable {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	return buf, nil
}

func decodeSchema(buf []byte) (*types.Schema, error) {
	if len(buf) < 2 {
		return nil, errors.New("arrowipc: truncated schema")
	}
	n := int(binary.LittleEndian.Uint16(buf))
	pos := 2
	if n > (len(buf)-pos)/4 {
		return nil, errors.New("arrowipc: truncated schema field")
	}
	s := &types.Schema{Fields: make([]types.Field, 0, n)}
	for i := 0; i < n; i++ {
		if pos+2 > len(buf) {
			return nil, errors.New("arrowipc: truncated schema field")
		}
		nameLen := int(binary.LittleEndian.Uint16(buf[pos:]))
		pos += 2
		if pos+nameLen+2 > len(buf) {
			return nil, errors.New("arrowipc: truncated schema field body")
		}
		name := string(buf[pos : pos+nameLen])
		pos += nameLen
		kind := types.Kind(buf[pos])
		nullable := buf[pos+1] == 1
		pos += 2
		if !kind.Valid() {
			return nil, fmt.Errorf("arrowipc: invalid kind %d for field %q", kind, name)
		}
		s.Fields = append(s.Fields, types.Field{Name: name, Kind: kind, Nullable: nullable})
	}
	return s, nil
}

// batchLen is the exact payload length of b's batch frame.
func batchLen(b *types.Batch) int {
	n := b.NumRows()
	l := 4
	for _, col := range b.Cols {
		l += 1 + payloadLen(col, n)
		if hasBitmap(col, n) {
			l += (n + 7) / 8
		}
	}
	return l
}

// hasBitmap reports whether a column carries a validity bitmap on the wire:
// when any row is NULL, and always for a non-empty NULL-typed column.
func hasBitmap(col *types.Column, n int) bool {
	return col.HasNulls() || (col.Kind() == types.KindNull && n > 0)
}

func payloadLen(col *types.Column, n int) int {
	switch col.Kind() {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp, types.KindFloat64:
		return 8 * n
	case types.KindString, types.KindBinary:
		l := 4 * (n + 1)
		for _, s := range col.Strings()[:n] {
			l += len(s)
		}
		return l
	}
	return 0
}

// appendBatchFrame appends b's batch frame, whose payload is plen bytes.
func appendBatchFrame(buf []byte, b *types.Batch, plen int) ([]byte, error) {
	buf, err := appendFrameHeader(buf, msgBatch, plen)
	if err != nil {
		return nil, err
	}
	n := b.NumRows()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, col := range b.Cols {
		buf = appendColumn(buf, col, n)
	}
	return buf, nil
}

func appendColumn(buf []byte, col *types.Column, n int) []byte {
	if hasBitmap(col, n) {
		buf = append(buf, 1)
		at := len(buf)
		buf = append(buf, make([]byte, (n+7)/8)...)
		bitmap := buf[at:]
		allNull := col.Kind() == types.KindNull
		for i := 0; i < n; i++ {
			if allNull || col.IsNull(i) {
				bitmap[i/8] |= 1 << (i % 8)
			}
		}
	} else {
		buf = append(buf, 0)
	}
	switch col.Kind() {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		at := len(buf)
		buf = append(buf, make([]byte, 8*n)...)
		for i, v := range col.Int64s()[:n] {
			binary.LittleEndian.PutUint64(buf[at+8*i:], uint64(v))
		}
	case types.KindFloat64:
		at := len(buf)
		buf = append(buf, make([]byte, 8*n)...)
		for i, v := range col.Float64s()[:n] {
			binary.LittleEndian.PutUint64(buf[at+8*i:], math.Float64bits(v))
		}
	case types.KindString, types.KindBinary:
		strs := col.Strings()[:n]
		off := uint32(0)
		buf = binary.LittleEndian.AppendUint32(buf, off)
		for _, s := range strs {
			off += uint32(len(s))
			buf = binary.LittleEndian.AppendUint32(buf, off)
		}
		for _, s := range strs {
			buf = append(buf, s...)
		}
	}
	return buf
}

// EncodedLen returns the exact length of EncodeBatch(b), so a caller can
// place the stream behind its own header in one allocation.
func EncodedLen(b *types.Batch) int {
	total, _ := streamLen(b)
	return total
}

// streamLen returns the length of b's single-batch stream and of its batch
// payload.
func streamLen(b *types.Batch) (total, plen int) {
	plen = batchLen(b)
	return 3*frameHeaderLen + schemaLen(b.Schema) + plen, plen
}

// AppendEncoded appends the single-batch stream EncodeBatch returns to dst,
// growing dst at most once.
func AppendEncoded(dst []byte, b *types.Batch) ([]byte, error) {
	total, plen := streamLen(b)
	return appendStream(slices.Grow(dst, total), b, plen)
}

// EncodeBatch serializes a single batch (schema included) into one buffer
// of exactly EncodedLen(b) bytes.
func EncodeBatch(b *types.Batch) ([]byte, error) {
	total, plen := streamLen(b)
	return appendStream(make([]byte, 0, total), b, plen)
}

// appendStream writes b's schema, batch and end frames into dst, which has
// room for them.
func appendStream(dst []byte, b *types.Batch, plen int) ([]byte, error) {
	dst, err := appendSchemaFrame(dst, b.Schema)
	if err != nil {
		return nil, err
	}
	if dst, err = appendBatchFrame(dst, b, plen); err != nil {
		return nil, err
	}
	return appendFrameHeader(dst, msgEnd, 0)
}

// --- decoding ---

// DecodeBatch reverses EncodeBatch. It reads frames in place from data and
// decodes every batch in the stream into one batch; the result shares no
// memory with data.
func DecodeBatch(data []byte) (*types.Batch, error) {
	return new(Decoder).Decode(data)
}

// readStream reads every frame of an in-place stream and returns its schema,
// its batch payloads in order, and how many rows they hold.
func readStream(data []byte) (*types.Schema, [][]byte, int, error) {
	rd, err := openReader(&Reader{data: data})
	if err != nil {
		return nil, nil, 0, err
	}
	var payloads [][]byte
	rows := 0
	for !rd.done {
		msgType, payload, err := rd.readFrame(0)
		if err != nil {
			return nil, nil, 0, err
		}
		switch msgType {
		case msgBatch:
			n, err := frameRows(payload, rd.schema)
			if err != nil {
				return nil, nil, 0, err
			}
			rows += n
			payloads = append(payloads, payload)
		case msgEnd:
			rd.done = true
		default:
			return nil, nil, 0, fmt.Errorf("arrowipc: unexpected message type %d", msgType)
		}
	}
	return rd.schema, payloads, rows, nil
}

// Decoder decodes streams like DecodeBatch into column buffers it keeps
// from one Decode to the next, so a long-lived reader of many similar
// streams allocates its columns once, for the largest stream it decoded.
// The batch Decode returns shares those buffers: it is valid only until
// the next Decode. A Decoder is not safe for concurrent use.
type Decoder struct {
	sinks []colSink
}

// Decode decodes one stream, as DecodeBatch does, into the decoder's
// buffers. No row of an earlier Decode survives into its result.
func (d *Decoder) Decode(data []byte) (*types.Batch, error) {
	schema, payloads, _, err := readStream(data)
	if err != nil {
		return nil, err
	}
	d.sinks = resize(d.sinks, schema.Len())
	b, _, err := decodeFrames(d.sinks, schema, payloads)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Assembly decodes the streams of a batch's row partitions, each encoded
// on its own (by a different sandbox, say), straight into one batch
// presized for all their rows: no batch per partition and no concat. Each
// part must carry the assembly's schema and exactly its partition's rows.
// Distinct parts may be decoded concurrently.
type Assembly struct {
	schema *types.Schema
	cols   []colSink   // per column, sized for every row
	parts  [][]colSink // per part, per column: a view of its rows of cols
	starts []int       // per part, its first row; then the total
}

// NewAssembly prepares a batch of schema whose part i holds partRows[i]
// rows.
func NewAssembly(schema *types.Schema, partRows []int) *Assembly {
	a := &Assembly{schema: schema, cols: make([]colSink, schema.Len()), starts: make([]int, len(partRows)+1)}
	for i, n := range partRows {
		a.starts[i+1] = a.starts[i] + n
	}
	for c, f := range schema.Fields {
		a.cols[c].reset(f.Kind, a.starts[len(partRows)])
	}
	a.parts = make([][]colSink, len(partRows))
	for i := range partRows {
		a.parts[i] = make([]colSink, len(a.cols))
		for c := range a.cols {
			a.parts[i][c] = a.cols[c].view(a.starts[i], a.starts[i+1])
		}
	}
	return a
}

// DecodePart decodes part i's stream into its rows of the batch.
func (a *Assembly) DecodePart(i int, data []byte) error {
	schema, payloads, rows, err := readStream(data)
	if err != nil {
		return err
	}
	if !schema.Equal(a.schema) {
		return fmt.Errorf("arrowipc: part %d has schema %s, want %s", i, schema, a.schema)
	}
	if want := a.starts[i+1] - a.starts[i]; rows != want {
		return fmt.Errorf("arrowipc: part %d has %d rows, want %d", i, rows, want)
	}
	_, _, err = fillFrames(a.parts[i], schema, payloads)
	return err
}

// Batch returns the assembled batch once every part is decoded.
func (a *Assembly) Batch() *types.Batch {
	total := a.starts[len(a.parts)]
	cols := make([]*types.Column, len(a.cols))
	for c := range a.cols {
		s := &a.cols[c]
		for i, part := range a.parts {
			if part[c].hasNulls {
				s.markNull() // sizes and clears s.nulls once
				copy(s.nulls[a.starts[i]:], part[c].nulls)
			}
		}
		cols[c] = s.build(total)
	}
	return &types.Batch{Schema: a.schema, Cols: cols}
}

// rowBits is the fewest payload bits a row costs in a column of kind k: 64
// for ints and floats, 32 for a string offset, 1 for a NULL-typed column's
// bitmap bit.
func rowBits(k types.Kind) int {
	switch k {
	case types.KindString, types.KindBinary:
		return 32
	case types.KindNull:
		return 1
	}
	return 64
}

// frameRows returns the row count a batch payload claims, rejecting one its
// bytes cannot hold before anything is reserved for it. A schema without
// fields has no rows.
func frameRows(payload []byte, schema *types.Schema) (int, error) {
	if len(payload) < 4 {
		return 0, errors.New("arrowipc: truncated batch")
	}
	if schema.Len() == 0 {
		return 0, nil
	}
	n := int(binary.LittleEndian.Uint32(payload))
	bits := 0
	for _, f := range schema.Fields {
		bits += rowBits(f.Kind)
	}
	if n > 8*(len(payload)-4)/bits {
		return 0, fmt.Errorf("arrowipc: batch claims %d rows in %d payload bytes", n, len(payload)-4)
	}
	return n, nil
}

// decodeFrames decodes batch payloads into one batch through sinks, one per
// field, whose buffers are sized once from the payloads' row counts. frames
// is how many payloads the batch holds; on a corrupt payload decodeFrames
// returns the batch of the payloads before it, their count, and the error.
func decodeFrames(sinks []colSink, schema *types.Schema, payloads [][]byte) (b *types.Batch, frames int, err error) {
	total := 0
	for i, p := range payloads {
		n, rerr := frameRows(p, schema)
		if rerr != nil {
			payloads, err = payloads[:i], rerr
			break
		}
		total += n
	}
	for i, f := range schema.Fields {
		sinks[i].reset(f.Kind, total)
	}
	rows, frames, derr := fillFrames(sinks, schema, payloads)
	if derr != nil {
		err = derr
	}
	cols := make([]*types.Column, len(sinks))
	for i := range sinks {
		cols[i] = sinks[i].build(rows)
	}
	return &types.Batch{Schema: schema, Cols: cols}, frames, err
}

// fillFrames decodes payloads, whose row counts frameRows has checked, one
// after another into sinks sized for all their rows. It returns the rows
// and frames decoded before the first corrupt payload, and its error.
func fillFrames(sinks []colSink, schema *types.Schema, payloads [][]byte) (rows, frames int, err error) {
	for i, p := range payloads {
		n, _ := frameRows(p, schema)
		if err := decodeColumns(sinks, schema, p, rows, n); err != nil {
			return rows, i, err
		}
		rows += n
	}
	return rows, len(payloads), nil
}

func decodeColumns(sinks []colSink, schema *types.Schema, payload []byte, off, n int) error {
	pos := 4
	for ci := range sinks {
		next, err := sinks[ci].decode(payload, pos, off, n)
		if err != nil {
			return fmt.Errorf("arrowipc: column %q: %w", schema.Fields[ci].Name, err)
		}
		pos = next
	}
	return nil
}

// colSink is one column being decoded: its payload is sized once for every
// row of a drain and filled frame by frame. A sink keeps its buffers across
// resets, so a Decoder reuses them.
type colSink struct {
	kind  types.Kind
	total int
	ints  []int64
	flts  []float64
	strs  []string
	nulls []bool
	// hasNulls is set at the first NULL row; nulls is cleared then.
	hasNulls bool
}

// reset readies the sink for total rows of kind.
func (s *colSink) reset(kind types.Kind, total int) {
	s.kind, s.total, s.hasNulls = kind, total, false
	switch kind {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		s.ints = resize(s.ints, total)
	case types.KindFloat64:
		s.flts = resize(s.flts, total)
	case types.KindString, types.KindBinary:
		s.strs = resize(s.strs, total)
	}
}

// view returns a sink that writes rows [lo, hi) of s's payload and keeps a
// NULL mask of its own.
func (s *colSink) view(lo, hi int) colSink {
	v := colSink{kind: s.kind, total: hi - lo}
	switch s.kind {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		v.ints = s.ints[lo:hi:hi]
	case types.KindFloat64:
		v.flts = s.flts[lo:hi:hi]
	case types.KindString, types.KindBinary:
		v.strs = s.strs[lo:hi:hi]
	}
	return v
}

// markNull readies the NULL mask at the sink's first NULL row.
func (s *colSink) markNull() {
	if !s.hasNulls {
		s.nulls = resize(s.nulls, s.total)
		clear(s.nulls)
		s.hasNulls = true
	}
}

// resize returns buf with length n, reallocated only when it is too small.
// Its contents are left as they were: every row is written before it is read.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// decode reads one column of an n-row batch payload at buf[pos:] into rows
// [off, off+n) and returns the position after it. NULL rows keep a zero
// payload.
func (s *colSink) decode(buf []byte, pos, off, n int) (int, error) {
	if pos >= len(buf) {
		return 0, errors.New("truncated column header")
	}
	hasNulls := buf[pos] == 1
	pos++
	var bitmap []byte
	if hasNulls {
		bl := (n + 7) / 8
		if bl > len(buf)-pos {
			return 0, errors.New("truncated null bitmap")
		}
		bitmap = buf[pos : pos+bl]
		pos += bl
	}
	switch s.kind {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		if 8*n > len(buf)-pos {
			return 0, errors.New("truncated int buffer")
		}
		dst := s.ints[off : off+n]
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(buf[pos+8*i:]))
		}
		pos += 8 * n
	case types.KindFloat64:
		if 8*n > len(buf)-pos {
			return 0, errors.New("truncated float buffer")
		}
		dst := s.flts[off : off+n]
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[pos+8*i:]))
		}
		pos += 8 * n
	case types.KindString, types.KindBinary:
		if 4*(n+1) > len(buf)-pos {
			return 0, errors.New("truncated offsets")
		}
		offsets := buf[pos : pos+4*(n+1)]
		pos += 4 * (n + 1)
		size := int(binary.LittleEndian.Uint32(offsets[4*n:]))
		if size > len(buf)-pos {
			return 0, errors.New("truncated string data")
		}
		// One string per column per frame; every row is a substring of it.
		slab := string(buf[pos : pos+size])
		dst := s.strs[off : off+n]
		for i := range dst {
			if bitmap != nil && bitmap[i/8]&(1<<(i%8)) != 0 {
				dst[i] = ""
				continue
			}
			lo := binary.LittleEndian.Uint32(offsets[4*i:])
			hi := binary.LittleEndian.Uint32(offsets[4*i+4:])
			if lo > hi || int(hi) > size {
				return 0, errors.New("invalid string offsets")
			}
			dst[i] = slab[lo:hi]
		}
		pos += size
	case types.KindNull:
		if n > 0 && bitmap == nil {
			return 0, errors.New("NULL-typed column without a null bitmap")
		}
		return pos, nil
	default:
		return 0, fmt.Errorf("unsupported kind %v", s.kind)
	}
	for i := 0; bitmap != nil && i < n; i++ {
		if bitmap[i/8]&(1<<(i%8)) == 0 {
			continue
		}
		s.markNull()
		s.nulls[off+i] = true
		switch s.kind {
		case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
			s.ints[off+i] = 0
		case types.KindFloat64:
			s.flts[off+i] = 0
		}
	}
	return pos, nil
}

// build returns the first n decoded rows as a column.
func (s *colSink) build(n int) *types.Column {
	var nulls []bool
	if s.hasNulls {
		nulls = s.nulls[:n]
	}
	switch s.kind {
	case types.KindBool, types.KindInt64, types.KindDate, types.KindTimestamp:
		return types.NewInt64Column(s.kind, s.ints[:n], nulls)
	case types.KindFloat64:
		return types.NewFloat64Column(s.flts[:n], nulls)
	case types.KindString, types.KindBinary:
		return types.NewStringColumn(s.kind, s.strs[:n], nulls)
	}
	return types.ConstColumn(types.Null(s.kind), n)
}

// ConcatBatches merges batches sharing a schema into one batch. It checks
// every input's schema — a lone batch's too — before anything else, returns
// a lone batch unchanged, and otherwise appends column-wise into columns
// allocated once. An empty input yields an empty batch of the given schema.
func ConcatBatches(schema *types.Schema, batches []*types.Batch) (*types.Batch, error) {
	total := 0
	for _, b := range batches {
		if !b.Schema.Equal(schema) {
			return nil, fmt.Errorf("arrowipc: cannot concat mismatched schema %s vs %s", b.Schema, schema)
		}
		total += b.NumRows()
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	bb := types.NewBatchBuilder(schema, total)
	for _, b := range batches {
		bb.AppendBatch(b)
	}
	return bb.Build(), nil
}
