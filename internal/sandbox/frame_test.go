package sandbox

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/udf"
)

// The request frame crosses a trust boundary: the decoder must reject
// truncated, oversized, and corrupt frames without panicking — a hostile or
// bit-flipped frame burns the request, never the interpreter.
func TestDecodeRequestRejectsCorruptFrames(t *testing.T) {
	valid, err := appendRequest(nil, &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(3)})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"truncated len":  {0x01, 0x02},
		"header overrun": {0xff, 0xff, 0x00, 0x00, 'x'},
		// Lengths with the top bit set wrap negative where int is 32 bits.
		"negative length":  {0x00, 0x00, 0x00, 0x80, 'x', 'y'},
		"all bits set":     {0xff, 0xff, 0xff, 0xff, 'x', 'y'},
		"oversized header": {0x01, 0x00, 0x20, 0x00}, // 2MiB > maxRequestHeader
		"garbage json":     append([]byte{0x03, 0x00, 0x00, 0x00}, []byte("{{{rest")...),
		"body truncated":   valid[:len(valid)-20],
	}
	in := newInterpreter(nil, udf.DefaultFuel)
	for name, frame := range cases {
		if _, _, err := in.decodeRequest(frame); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
	// Sanity: the valid frame still round-trips.
	bs, batch, err := in.decodeRequest(valid)
	if err != nil || len(bs.specs) != 1 || batch.NumRows() != 3 {
		t.Fatalf("valid frame rejected: %v", err)
	}
}

func TestEncodeRequestRejectsOversizedHeader(t *testing.T) {
	spec := sumSpec()
	spec.Body = strings.Repeat("x", maxRequestHeader+1)
	_, err := appendRequest(nil, &Request{Specs: []UDFSpec{spec}, Args: argBatch(1)})
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("err = %v", err)
	}
}

// A corrupt frame handed to the interpreter surfaces as a request error, and
// the sandbox keeps serving.
func TestInterpreterSurvivesCorruptFrame(t *testing.T) {
	sb := New("alice", Config{})
	defer sb.Close()
	// Drive the raw channel like Execute would, with a corrupt payload.
	sb.execMu.Lock()
	sb.reqCh <- []byte{0xff, 0xff, 0xff, 0x7f}
	resp := <-sb.respCh
	sb.execMu.Unlock()
	if resp.err == "" || resp.crashed {
		t.Fatalf("resp = %+v, want clean request error", resp)
	}
	if _, err := sb.Execute(nil, &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(2)}); err != nil {
		t.Fatalf("sandbox dead after corrupt frame: %v", err)
	}
}

// Concurrent Execute calls serialize on the single IPC pipe; interleaved
// requests must neither corrupt results nor trip the race detector.
func TestConcurrentExecuteSerializedOnPipe(t *testing.T) {
	sb := New("alice", Config{})
	defer sb.Close()
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			out, err := sb.Execute(nil, &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(20)})
			if err == nil && out.Cols[0].Int64(19) != 19+190 {
				err = errTestWrongResult
			}
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if sb.Crossings() != 16 {
		t.Errorf("crossings = %d, want 16 serialized crossings", sb.Crossings())
	}
}

var errTestWrongResult = errors.New("wrong result")

// The request frame is the length-prefixed JSON spec header followed by the
// arrowipc stream of the arguments, written into one exact-size buffer.
func TestEncodeRequestOneExactBuffer(t *testing.T) {
	req := &Request{Specs: []UDFSpec{sumSpec()}, Args: argBatch(5)}
	frame, err := appendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	header, _ := json.Marshal(req.Specs)
	body, _ := arrowipc.EncodeBatch(req.Args)
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(header)))
	want = append(append(want, header...), body...)
	if !bytes.Equal(frame, want) {
		t.Fatal("request frame bytes changed")
	}
	if cap(frame) != len(frame) {
		t.Fatalf("request frame has cap %d for %d bytes, want one exact buffer", cap(frame), len(frame))
	}
}
