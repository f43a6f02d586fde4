package sandbox

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/faults"
	"lakeguard/internal/types"
	"lakeguard/internal/udf"
)

// mixedBatch has n rows of a STRING column with a NULL every third row and
// a DOUBLE column.
func mixedBatch(n int) *types.Batch { return stringBatch(n, 3) }

// stringBatch is mixedBatch with a NULL string every nullEvery rows (0:
// none).
func stringBatch(n, nullEvery int) *types.Batch {
	schema := types.NewSchema(
		types.Field{Name: "s", Kind: types.KindString, Nullable: true},
		types.Field{Name: "x", Kind: types.KindFloat64},
	)
	bb := types.NewBatchBuilder(schema, n)
	for i := 0; i < n; i++ {
		s := types.String("row" + itoa(i))
		if nullEvery > 0 && i%nullEvery == 1 {
			s = types.Null(types.KindString)
		}
		bb.AppendRow([]types.Value{s, types.Float64(float64(i) / 2)})
	}
	return bb.Build()
}

func concatSpec() UDFSpec {
	return UDFSpec{Name: "cat", Body: "return 'null' if is_null(s) else s + ':' + str(x)",
		ArgNames: []string{"s", "x"}, ArgCols: []int{0, 1}, ResultKind: types.KindString}
}

// The engine writes each crossing's request into the buffer of the last
// one: a smaller crossing after a larger one, and a crossing after a user
// error, reuse it and still see only their own rows.
func TestRequestBufferReusedAfterNormalResponse(t *testing.T) {
	sb := New("alice", Config{})
	defer sb.Close()
	ctx := context.Background()
	if _, err := sb.Execute(ctx, &Request{Specs: []UDFSpec{concatSpec()}, Args: mixedBatch(200)}); err != nil {
		t.Fatal(err)
	}
	buf := &sb.reqBuf[:1][0]
	bad := UDFSpec{Name: "bad", Body: "return 1 // 0", ArgNames: []string{"x"}, ArgCols: []int{1}, ResultKind: types.KindInt64}
	if _, err := sb.Execute(ctx, &Request{Specs: []UDFSpec{bad}, Args: mixedBatch(5)}); err == nil {
		t.Fatal("user error not surfaced")
	}
	out, err := sb.Execute(ctx, &Request{Specs: []UDFSpec{concatSpec()}, Args: mixedBatch(4)})
	if err != nil {
		t.Fatal(err)
	}
	if &sb.reqBuf[:1][0] != buf {
		t.Error("request buffer reallocated for a smaller crossing after a normal response")
	}
	if out.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", out.NumRows())
	}
	for i, want := range []string{"row0:0", "null", "row2:1", "row3:1.5"} {
		if got := out.Cols[0].StringAt(i); got != want {
			t.Errorf("row %d = %q, want %q", i, got, want)
		}
	}
}

// An abandoned crossing (ExecTimeout or an in-flight cancel) may leave the
// interpreter reading its request: the sandbox drops that buffer, refuses
// every later crossing without encoding one, and the dispatcher
// quarantines it instead of pooling it. Under -race, a rewrite of the
// buffer while the interpreter reads it fails the run.
func TestChaosAbandonedCrossingNeverReusesItsBuffer(t *testing.T) {
	const sleep = 80 * time.Millisecond
	for _, mode := range []string{"ExecTimeout", "cancel"} {
		t.Run(mode, func(t *testing.T) {
			// The second crossing's interpreter wakes after the engine gave
			// up, then decodes the request it was sent.
			inj := faults.New(chaosSeed()).Add(faults.Rule{Site: faults.SiteSandboxInterpret, Kind: faults.KindSleep, Delay: sleep, Skip: 1, Times: 1})
			cfg := Config{Faults: inj}
			if mode == "ExecTimeout" {
				cfg.ExecTimeout = 20 * time.Millisecond
			}
			d := NewSupervised(FactoryFunc(func(ctx context.Context, domain string) (*Sandbox, error) {
				return NewContext(ctx, domain, cfg)
			}), SupervisorConfig{CircuitThreshold: -1})
			sb, err := d.Acquire("sess", "alice")
			if err != nil {
				t.Fatal(err)
			}
			req := &Request{Specs: []UDFSpec{concatSpec()}, Args: mixedBatch(64)}
			if _, err := sb.Execute(context.Background(), req); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if mode == "cancel" {
				time.AfterFunc(20*time.Millisecond, cancel)
			}
			_, err = sb.Execute(ctx, req)
			var crash *SandboxCrashError
			switch {
			case mode == "ExecTimeout" && !(errors.As(err, &crash) && crash.Timeout):
				t.Fatalf("err = %v, want a timeout SandboxCrashError", err)
			case mode == "cancel" && !errors.Is(err, context.Canceled):
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if sb.reqBuf != nil {
				t.Error("sandbox kept the request buffer of an abandoned crossing")
			}
			// Same size as the abandoned request: a kept buffer would be
			// rewritten in place while the interpreter reads it.
			if _, err := sb.Execute(context.Background(), req); !errors.Is(err, ErrSandboxPoisoned) {
				t.Errorf("crossing after the kill = %v, want ErrSandboxPoisoned", err)
			}
			d.Release("sess", sb)
			next, err := d.Acquire("sess", "alice")
			if err != nil {
				t.Fatal(err)
			}
			if next == sb {
				t.Fatal("a sandbox killed mid-crossing was pooled again")
			}
			if st := d.Stats(); st.Crashes != 1 {
				t.Errorf("stats = %+v, want 1 quarantined sandbox", st)
			}
			next.Close()
			time.Sleep(2 * sleep) // let the abandoned interpreter wake and read
		})
	}
}

// The interpreter binds a fused set once per distinct spec header: the same
// header bytes reuse the bound set, any different byte binds afresh, and a
// header whose body does not compile is never cached.
func TestSetCacheKeysOnHeaderBytes(t *testing.T) {
	in := newInterpreter(nil, udf.DefaultFuel)
	decode := func(specs ...UDFSpec) *boundSet {
		t.Helper()
		frame, err := appendRequest(nil, &Request{Specs: specs, Args: argBatch(3)})
		if err != nil {
			t.Fatal(err)
		}
		bs, _, err := in.decodeRequest(frame)
		if err != nil {
			t.Fatal(err)
		}
		return bs
	}
	first := decode(sumSpec())
	if decode(sumSpec()) != first {
		t.Error("the same header bound twice")
	}
	swapped := sumSpec()
	swapped.ArgNames = []string{"b", "a"}
	if decode(swapped) == first {
		t.Error("different parameter names shared a bound set")
	}
	broken := sumSpec()
	broken.Body = "retrn a"
	frame, _ := appendRequest(nil, &Request{Specs: []UDFSpec{broken}, Args: argBatch(1)})
	for i := 0; i < 2; i++ {
		if _, _, err := in.decodeRequest(frame); err == nil {
			t.Fatal("compile error not reported")
		}
	}
	if len(in.sets) != 2 {
		t.Errorf("%d cached sets, want 2", len(in.sets))
	}
}

// FuzzDecodeRequest feeds arbitrary request frames to an interpreter that
// has just served larger valid crossings, so its decode columns and header
// cache are warm. A frame either fails to decode or decodes exactly as a
// fresh decoder and a fresh header parse read it: no row of the earlier
// crossing and no stale bound set leaks into it. Serving it never panics.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []*Request{
		{Specs: []UDFSpec{sumSpec()}, Args: argBatch(3)},
		{Specs: []UDFSpec{concatSpec(), sumSpec()}, Args: mixedBatch(0)},
		{Specs: []UDFSpec{concatSpec()}, Args: mixedBatch(7)},
	}
	for _, req := range seeds {
		frame, err := appendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Two larger crossings of other kinds leave stale buffers of every
	// payload kind behind in the reused columns.
	var warm [][]byte
	for _, req := range []*Request{
		{Specs: []UDFSpec{sumSpec()}, Args: argBatch(200)},
		{Specs: []UDFSpec{concatSpec()}, Args: stringBatch(100, 0)},
	} {
		frame, err := appendRequest(nil, req)
		if err != nil {
			f.Fatal(err)
		}
		warm = append(warm, frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		in := newInterpreter(nil, 1000)
		for _, w := range warm {
			if _, err := in.serve(w); err != nil {
				t.Fatal(err)
			}
		}
		bs, got, err := in.decodeRequest(frame)
		if err != nil {
			return
		}
		hlen := int(binary.LittleEndian.Uint32(frame))
		var specs []UDFSpec
		if err := json.Unmarshal(frame[4:4+hlen], &specs); err != nil {
			t.Fatalf("decoded a header a fresh parse rejects: %v", err)
		}
		if !reflect.DeepEqual(bs.specs, specs) {
			t.Fatalf("bound set for %+v, header says %+v", bs.specs, specs)
		}
		want, err := arrowipc.DecodeBatch(frame[4+hlen:])
		if err != nil {
			t.Fatalf("decoded arguments a fresh decoder rejects: %v", err)
		}
		sameBatch(t, got, want)
		_, _ = in.serve(frame)
	})
}

// sameBatch fails unless a and b hold the same schema, values (NaN equal
// to NaN) and raw payloads, NULL rows' included.
func sameBatch(t *testing.T, a, b *types.Batch) {
	t.Helper()
	if !a.Schema.Equal(b.Schema) || a.NumRows() != b.NumRows() {
		t.Fatalf("batch %s with %d rows, want %s with %d rows", a.Schema, a.NumRows(), b.Schema, b.NumRows())
	}
	for c := range a.Cols {
		x, y := a.Cols[c], b.Cols[c]
		if !slices.Equal(x.Int64s(), y.Int64s()) || !slices.Equal(x.Strings(), y.Strings()) ||
			!slices.EqualFunc(x.Float64s(), y.Float64s(), func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) }) {
			t.Fatalf("column %d payload differs from a fresh decode", c)
		}
		for r := 0; r < a.NumRows(); r++ {
			x, y := a.Cols[c].Value(r), b.Cols[c].Value(r)
			if x.Kind != y.Kind || x.Null != y.Null || x.I != y.I || x.S != y.S || math.Float64bits(x.F) != math.Float64bits(y.F) {
				t.Fatalf("column %d row %d = %v, want %v", c, r, x, y)
			}
		}
	}
}
