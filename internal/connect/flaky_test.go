package connect

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/types"
)

// flakyProxy forwards TCP bytes to a backend but cuts the connection after a
// byte budget — modeling the idle-connection terminations and dropped
// connections §3.2.2 says cloud load balancers inflict on long streams.
type flakyProxy struct {
	listener net.Listener
	backend  string
	// cutAfter is the per-connection byte budget for backend->client data;
	// 0 disables cutting. Only the first connection is cut (the retry must
	// succeed).
	cutAfter int64
	cuts     atomic.Int64
	first    atomic.Bool
}

func newFlakyProxy(t *testing.T, backend string, cutAfter int64) *flakyProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{listener: l, backend: backend, cutAfter: cutAfter}
	p.first.Store(true)
	go p.serve()
	t.Cleanup(func() { l.Close() })
	return p
}

func (p *flakyProxy) addr() string { return "http://" + p.listener.Addr().String() }

func (p *flakyProxy) serve() {
	for {
		client, err := p.listener.Accept()
		if err != nil {
			return
		}
		go p.handle(client)
	}
}

func (p *flakyProxy) handle(client net.Conn) {
	defer client.Close()
	server, err := net.Dial("tcp", p.backend)
	if err != nil {
		return
	}
	defer server.Close()
	// client -> server: unlimited.
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if _, werr := server.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	// server -> client: cut the first connection after the byte budget.
	cut := p.cutAfter > 0 && p.first.CompareAndSwap(true, false)
	var sent int64
	buf := make([]byte, 4096)
	for {
		n, err := server.Read(buf)
		if n > 0 {
			chunk := buf[:n]
			if cut && sent+int64(n) > p.cutAfter {
				chunk = buf[:p.cutAfter-sent]
			}
			if len(chunk) > 0 {
				if _, werr := client.Write(chunk); werr != nil {
					return
				}
				sent += int64(len(chunk))
			}
			if cut && sent >= p.cutAfter {
				p.cuts.Add(1)
				return // drop the connection mid-stream
			}
		}
		if err != nil {
			return
		}
	}
}

// TestClientSurvivesDroppedStream runs a large result through a proxy that
// drops the first response mid-stream; the client must reattach and deliver
// the complete result.
func TestClientSurvivesDroppedStream(t *testing.T) {
	// Many batches so the stream is large enough to cut partway.
	groups := make([][]int64, 40)
	for i := range groups {
		vals := make([]int64, 64)
		for j := range vals {
			vals[j] = int64(i*64 + j)
		}
		groups[i] = vals
	}
	schema, batches := intBatches(groups...)
	fb := &fakeBackend{schema: schema, batches: batches}
	svc := NewService(fb, TokenMap{"tok": "user@x"})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	backendAddr := strings.TrimPrefix(ts.URL, "http://")
	proxy := newFlakyProxy(t, backendAddr, 6000) // cut the first response early

	// The client dials through the proxy for execute; its reattach request
	// opens a NEW connection (the proxy only cuts the first), so recovery
	// succeeds.
	c := Dial(proxy.addr(), "tok")
	b, err := c.Sql("SELECT n FROM t").Collect()
	if err != nil {
		t.Fatalf("collect through flaky proxy: %v", err)
	}
	if b.NumRows() != 40*64 {
		t.Fatalf("rows = %d, want %d", b.NumRows(), 40*64)
	}
	for i := 0; i < b.NumRows(); i++ {
		if b.Cols[0].Int64(i) != int64(i) {
			t.Fatalf("row %d corrupted after reattach: %d", i, b.Cols[0].Int64(i))
		}
	}
	if proxy.cuts.Load() == 0 {
		t.Fatal("proxy never cut the stream; test exercised nothing")
	}
}

// TestClientFailsCleanlyWithoutReattachTarget drops the stream before the
// operation header arrives, so no reattach is possible; the client must
// return an error, not a truncated result.
func TestClientFailsCleanlyWhenHeadersLost(t *testing.T) {
	schema, batches := intBatches([]int64{1, 2, 3})
	fb := &fakeBackend{schema: schema, batches: batches}
	svc := NewService(fb, TokenMap{"tok": "user@x"})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	proxy := newFlakyProxy(t, strings.TrimPrefix(ts.URL, "http://"), 10) // cut inside the header
	c := Dial(proxy.addr(), "tok")
	if _, err := c.Sql("SELECT n FROM t").Collect(); err == nil {
		t.Fatal("expected an error when the response is cut before headers")
	}
}

// mixedBatches is a multi-frame result with strings (empty ones included)
// and NULLs in every nullable column.
func mixedBatches(frames, rows int) (*types.Schema, []*types.Batch) {
	schema := types.NewSchema(
		types.Field{Name: "id", Kind: types.KindInt64},
		types.Field{Name: "name", Kind: types.KindString, Nullable: true},
		types.Field{Name: "score", Kind: types.KindFloat64, Nullable: true},
	)
	var out []*types.Batch
	for f := 0; f < frames; f++ {
		ids := types.NewBuilder(types.KindInt64, rows)
		names := types.NewBuilder(types.KindString, rows)
		scores := types.NewBuilder(types.KindFloat64, rows)
		for i := 0; i < rows; i++ {
			id := f*rows + i
			ids.AppendInt64(int64(id))
			if id%7 == 3 {
				names.AppendNull()
			} else {
				names.AppendString(strings.Repeat("x", id%5) + strconv.Itoa(id))
			}
			if id%5 == 1 {
				scores.AppendNull()
			} else {
				scores.AppendFloat64(float64(id) / 4)
			}
		}
		out = append(out, types.MustBatch(schema, []*types.Column{ids.Build(), names.Build(), scores.Build()}))
	}
	return schema, out
}

// cutWriter passes a response through until left body bytes are written,
// then drops the connection.
type cutWriter struct {
	http.ResponseWriter
	left int
}

func (w *cutWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		p = p[:w.left]
	}
	n, err := w.ResponseWriter.Write(p)
	w.left -= n
	if w.left == 0 {
		w.ResponseWriter.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}
	return n, err
}

// frameEnds returns the byte offset at which each frame of an arrowipc
// stream ends: the schema frame first, then every batch frame.
func frameEnds(t *testing.T, schema *types.Schema, batches []*types.Batch) []int {
	t.Helper()
	var buf bytes.Buffer
	w, err := arrowipc.NewWriter(&buf, schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	var ends []int
	for pos := 0; pos < len(data); {
		pos += 4 + int(binary.LittleEndian.Uint32(data[pos:]))
		ends = append(ends, pos)
	}
	return ends
}

// TestReattachAfterKFramesMatchesUninterrupted cuts the first execute
// response after k whole batch frames — exactly at the frame boundary, and a
// few bytes into the next frame — and requires the client to reattach at
// start=k and deliver the same answer, cell for cell, as an uninterrupted
// run. A cut at a frame boundary must not pass for a complete stream.
func TestReattachAfterKFramesMatchesUninterrupted(t *testing.T) {
	schema, batches := mixedBatches(8, 50)
	fb := &fakeBackend{schema: schema, batches: batches}
	want, err := Dial(newHTTPServer(t, NewService(fb, TokenMap{"tok": "user@x"}).Handler()).URL, "tok").
		Sql("SELECT * FROM t").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() != 8*50 {
		t.Fatalf("uninterrupted run: %d rows", want.NumRows())
	}
	ends := frameEnds(t, schema, batches)
	for _, k := range []int{0, 1, 3, 7} {
		for _, extra := range []int{0, 3, 40} {
			svc := NewService(fb, TokenMap{"tok": "user@x"})
			var cut atomic.Bool
			var starts []string
			var mu sync.Mutex
			h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/reattach" {
					mu.Lock()
					starts = append(starts, r.URL.Query().Get("start"))
					mu.Unlock()
				}
				if r.URL.Path == "/v1/execute" && cut.CompareAndSwap(false, true) {
					w = &cutWriter{ResponseWriter: w, left: ends[k] + extra}
				}
				svc.Handler().ServeHTTP(w, r)
			})
			got, err := Dial(newHTTPServer(t, h).URL, "tok").Sql("SELECT * FROM t").Collect()
			if err != nil {
				t.Fatalf("k=%d extra=%d: %v", k, extra, err)
			}
			mu.Lock()
			if len(starts) != 1 || starts[0] != strconv.Itoa(k) {
				t.Errorf("k=%d extra=%d: reattach starts %v, want [%d]", k, extra, starts, k)
			}
			mu.Unlock()
			if !sameCells(want, got) {
				t.Fatalf("k=%d extra=%d: reattached answer differs from the uninterrupted one", k, extra)
			}
		}
	}
}

func newHTTPServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

func sameCells(a, b *types.Batch) bool {
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		return false
	}
	for c := range a.Cols {
		for i := 0; i < a.NumRows(); i++ {
			va, vb := a.Cols[c].Value(i), b.Cols[c].Value(i)
			if va.Null != vb.Null || (!va.Null && !va.Equal(vb)) {
				return false
			}
		}
	}
	return true
}

// A one-frame answer is self-released: it names no operation, so a
// response cut anywhere in its body, at a frame boundary included, fails
// the client outright. The client never returns a short batch and never
// asks to reattach.
func TestCutSelfReleasedAnswerFailsWithoutReattach(t *testing.T) {
	schema, batches := mixedBatches(1, 50)
	fb := &fakeBackend{schema: schema, batches: batches}
	ends := frameEnds(t, schema, batches)
	total := ends[len(ends)-1]
	for _, left := range []int{1, 4, ends[0], ends[0] + 7, ends[1], total - 1} {
		svc := NewService(fb, TokenMap{"tok": "user@x"})
		var reattaches, releases atomic.Int64
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch r.URL.Path {
			case "/v1/reattach":
				reattaches.Add(1)
			case "/v1/release":
				releases.Add(1)
			case "/v1/execute":
				w = &cutWriter{ResponseWriter: w, left: left}
			}
			svc.Handler().ServeHTTP(w, r)
		})
		b, err := Dial(newHTTPServer(t, h).URL, "tok").Sql("SELECT * FROM t").Collect()
		if err == nil || b != nil {
			t.Fatalf("cut after %d of %d bytes: batch %v, err %v; want an error and no batch", left, total, b, err)
		}
		if n := reattaches.Load() + releases.Load(); n != 0 {
			t.Errorf("cut after %d bytes: %d reattach or release requests, want 0", left, n)
		}
		if n := heldOps(svc); n != 0 {
			t.Errorf("cut after %d bytes: %d operations held", left, n)
		}
	}
}

// A self-released answer decodes to the same cells as the held stream of
// the same batches, an empty answer included, and the same rows sent as one
// frame or held as two frames are the same answer to the client.
func TestSelfReleasedAnswerMatchesHeldPath(t *testing.T) {
	schema, one := mixedBatches(1, 50)
	empty := types.NewBatchBuilder(schema, 0).Build()
	cases := map[string][]*types.Batch{
		"one frame":          one,
		"no batches":         nil,
		"one empty batch":    {empty},
		"empties around one": {empty, one[0], empty},
	}
	for name, batches := range cases {
		svc := NewService(&fakeBackend{schema: schema, batches: batches}, TokenMap{"tok": "user@x"})
		got, err := Dial(newHTTPServer(t, svc.Handler()).URL, "tok").Sql("SELECT * FROM t").Collect()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := heldOps(svc); n != 0 {
			t.Fatalf("%s: %d operations held", name, n)
		}
		rec := httptest.NewRecorder()
		streamBatches(rec, schema, batches)
		want, _, err := new(frameBuffer).drain(rec.Body)
		if err != nil {
			t.Fatalf("%s: held stream: %v", name, err)
		}
		if !sameCells(want, got) {
			t.Fatalf("%s: self-released answer differs from the held stream", name)
		}
	}

	_, split := mixedBatches(2, 25)
	svc := NewService(&fakeBackend{schema: schema, batches: split}, TokenMap{"tok": "user@x"})
	var releases atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/release" {
			releases.Add(1)
		}
		svc.Handler().ServeHTTP(w, r)
	})
	held, err := Dial(newHTTPServer(t, h).URL, "tok").Sql("SELECT * FROM t").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if releases.Load() != 1 {
		t.Fatalf("two-frame answer: %d releases, want 1 (it is held)", releases.Load())
	}
	whole, err := arrowipc.ConcatBatches(schema, split)
	if err != nil {
		t.Fatal(err)
	}
	svc = NewService(&fakeBackend{schema: schema, batches: []*types.Batch{whole}}, TokenMap{"tok": "user@x"})
	self, err := Dial(newHTTPServer(t, svc.Handler()).URL, "tok").Sql("SELECT * FROM t").Collect()
	if err != nil {
		t.Fatal(err)
	}
	if !sameCells(held, self) || held.NumRows() != 50 {
		t.Fatalf("held two-frame answer (%d rows) differs from the self-released one-frame answer (%d rows)", held.NumRows(), self.NumRows())
	}
}
