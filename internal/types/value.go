package types

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"time"
)

// Value is a tagged-union scalar. The zero Value is a typed NULL of KindNull.
//
// Storage by kind:
//   - KindBool: I holds 0 or 1
//   - KindInt64, KindDate (days), KindTimestamp (micros): I
//   - KindFloat64: F
//   - KindString, KindBinary: S
type Value struct {
	S    string
	I    int64
	F    float64
	Kind Kind
	Null bool
}

// Null returns a NULL value of the given kind.
func Null(k Kind) Value { return Value{Kind: k, Null: true} }

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Int64 returns a BIGINT value.
func Int64(i int64) Value { return Value{Kind: KindInt64, I: i} }

// Float64 returns a DOUBLE value.
func Float64(f float64) Value { return Value{Kind: KindFloat64, F: f} }

// String returns a STRING value.
func String(s string) Value { return Value{Kind: KindString, S: s} }

// Binary returns a BINARY value.
func Binary(b []byte) Value { return Value{Kind: KindBinary, S: string(b)} }

// Date returns a DATE value from days since the Unix epoch.
func Date(days int64) Value { return Value{Kind: KindDate, I: days} }

// Timestamp returns a TIMESTAMP value from microseconds since the Unix epoch.
func Timestamp(micros int64) Value { return Value{Kind: KindTimestamp, I: micros} }

// DateFromString parses a YYYY-MM-DD date.
func DateFromString(s string) (Value, error) {
	t, err := time.ParseInLocation("2006-01-02", s, time.UTC)
	if err != nil {
		return Value{}, fmt.Errorf("invalid date %q: %w", s, err)
	}
	return Date(t.Unix() / 86400), nil
}

// TimestampFromString parses "YYYY-MM-DD HH:MM:SS" or RFC3339 timestamps.
func TimestampFromString(s string) (Value, error) {
	for _, layout := range []string{"2006-01-02 15:04:05", time.RFC3339, "2006-01-02"} {
		if t, err := time.ParseInLocation(layout, s, time.UTC); err == nil {
			return Timestamp(t.UnixMicro()), nil
		}
	}
	return Value{}, fmt.Errorf("invalid timestamp %q", s)
}

// AsBool returns the boolean payload. It panics on kind mismatch in tests but
// is lenient (false) for NULLs.
func (v Value) AsBool() bool { return !v.Null && v.I != 0 }

// AsInt64 returns the integer payload (also used for DATE and TIMESTAMP).
func (v Value) AsInt64() int64 { return v.I }

// AsFloat64 returns the float payload, widening integers.
func (v Value) AsFloat64() float64 {
	if v.Kind == KindInt64 {
		return float64(v.I)
	}
	return v.F
}

// AsString returns the string payload.
func (v Value) AsString() string { return v.S }

// IsTrue reports whether the value is a non-NULL true boolean.
func (v Value) IsTrue() bool { return v.Kind == KindBool && !v.Null && v.I != 0 }

// String renders the value for display and plan output.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt64:
		return strconv.FormatInt(v.I, 10)
	case KindFloat64:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBinary:
		return fmt.Sprintf("X'%x'", v.S)
	case KindDate:
		return time.Unix(v.I*86400, 0).UTC().Format("2006-01-02")
	case KindTimestamp:
		return time.UnixMicro(v.I).UTC().Format("2006-01-02 15:04:05")
	}
	return "NULL"
}

// SQLLiteral renders the value as a SQL literal (strings quoted).
func (v Value) SQLLiteral() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case KindString:
		return "'" + escapeSQL(v.S) + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	case KindTimestamp:
		return "TIMESTAMP '" + v.String() + "'"
	}
	return v.String()
}

func escapeSQL(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			out = append(out, '\'', '\'')
		} else {
			out = append(out, s[i])
		}
	}
	return string(out)
}

// Equal reports SQL equality treating NULL = NULL as true (useful for
// grouping and set semantics; expression-level equality handles three-valued
// logic separately).
func (v Value) Equal(o Value) bool {
	if v.Null || o.Null {
		return v.Null == o.Null
	}
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values. NULL sorts before any non-NULL. The second
// result is false when the kinds are incomparable.
func (v Value) Compare(o Value) (int, bool) {
	if v.Null || o.Null {
		switch {
		case v.Null && o.Null:
			return 0, true
		case v.Null:
			return -1, true
		default:
			return 1, true
		}
	}
	// Numeric cross-kind comparison widens to float.
	if v.Kind.Numeric() && o.Kind.Numeric() && v.Kind != o.Kind {
		return cmpFloat(v.AsFloat64(), o.AsFloat64()), true
	}
	if v.Kind != o.Kind {
		return 0, false
	}
	switch v.Kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		return cmpInt(v.I, o.I), true
	case KindFloat64:
		return cmpFloat(v.F, o.F), true
	case KindString, KindBinary:
		switch {
		case v.S < o.S:
			return -1, true
		case v.S > o.S:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

var hashSeed = maphash.MakeSeed()

// Hash returns a stable-within-process hash of the value, suitable for hash
// aggregation and hash joins. Integer-valued floats hash like integers so
// numeric cross-kind grouping is consistent with Compare.
func (v Value) Hash() uint64 {
	var h maphash.Hash
	h.SetSeed(hashSeed)
	if v.Null {
		h.WriteByte(0)
		return h.Sum64()
	}
	switch v.Kind {
	case KindBool, KindInt64, KindDate, KindTimestamp:
		h.WriteByte(1)
		writeUint64(&h, uint64(v.I))
	case KindFloat64:
		if v.F == math.Trunc(v.F) && !math.IsInf(v.F, 0) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			h.WriteByte(1)
			writeUint64(&h, uint64(int64(v.F)))
		} else {
			h.WriteByte(2)
			writeUint64(&h, math.Float64bits(v.F))
		}
	case KindString, KindBinary:
		h.WriteByte(3)
		h.WriteString(v.S)
	default:
		h.WriteByte(4)
	}
	return h.Sum64()
}

func writeUint64(h *maphash.Hash, u uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
	h.Write(b[:])
}

// Cast converts the value to the target kind, following SQL cast semantics.
func (v Value) Cast(to Kind) (Value, error) {
	if v.Null {
		return Null(to), nil
	}
	if v.Kind == to {
		return v, nil
	}
	switch to {
	case KindBool:
		switch v.Kind {
		case KindInt64:
			return Bool(v.I != 0), nil
		case KindString:
			switch upper(v.S) {
			case "TRUE", "T", "1":
				return Bool(true), nil
			case "FALSE", "F", "0":
				return Bool(false), nil
			}
		}
	case KindInt64:
		switch v.Kind {
		case KindBool:
			return Int64(v.I), nil
		case KindFloat64:
			return Int64(int64(v.F)), nil
		case KindString:
			i, err := strconv.ParseInt(v.S, 10, 64)
			if err == nil {
				return Int64(i), nil
			}
		case KindDate, KindTimestamp:
			return Int64(v.I), nil
		}
	case KindFloat64:
		switch v.Kind {
		case KindInt64:
			return Float64(float64(v.I)), nil
		case KindString:
			f, err := strconv.ParseFloat(v.S, 64)
			if err == nil {
				return Float64(f), nil
			}
		}
	case KindString:
		return String(v.String()), nil
	case KindBinary:
		if v.Kind == KindString {
			return Binary([]byte(v.S)), nil
		}
	case KindDate:
		switch v.Kind {
		case KindString:
			if d, err := DateFromString(v.S); err == nil {
				return d, nil
			}
		case KindTimestamp:
			return Date(v.I / (86400 * 1_000_000)), nil
		}
	case KindTimestamp:
		switch v.Kind {
		case KindString:
			if ts, err := TimestampFromString(v.S); err == nil {
				return ts, nil
			}
		case KindDate:
			return Timestamp(v.I * 86400 * 1_000_000), nil
		}
	}
	// The error names the two kinds and never the value: a cast inside a
	// mask or a row filter runs on values the caller may not see.
	return Value{}, fmt.Errorf("cannot cast %s to %s", v.Kind, to)
}
