package obs

import (
	"time"
)

// attrKind discriminates the value stored in an Attr.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
	attrBool
	attrDuration
)

// Attr is one typed key/value attribute attached to a span or event.
// Construct attrs with the typed helpers (String, Int, Float, Bool,
// Duration); the zero Attr renders as an empty string.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	f    float64
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, kind: attrString, str: value} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Int64(key, int64(value)) }

// Int64 builds an integer attribute.
func Int64(key string, value int64) Attr { return Attr{Key: key, kind: attrInt, num: value} }

// Float builds a floating-point attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, kind: attrFloat, f: value} }

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	n := int64(0)
	if value {
		n = 1
	}
	return Attr{Key: key, kind: attrBool, num: n}
}

// Duration builds a duration attribute (serialized in nanoseconds).
func Duration(key string, value time.Duration) Attr {
	return Attr{Key: key, kind: attrDuration, num: int64(value)}
}

// Value returns the attribute's dynamic value (for sinks that need the
// concrete type: string, int64, float64, bool, or time.Duration).
func (a Attr) Value() interface{} {
	switch a.kind {
	case attrInt:
		return a.num
	case attrFloat:
		return a.f
	case attrBool:
		return a.num != 0
	case attrDuration:
		return time.Duration(a.num)
	default:
		return a.str
	}
}

// jsonValue returns the value marshaled by the JSONL sink: durations
// become integer nanoseconds so traces stay language-neutral.
func (a Attr) jsonValue() interface{} {
	switch a.kind {
	case attrInt, attrDuration:
		return a.num
	case attrFloat:
		return a.f
	case attrBool:
		return a.num != 0
	default:
		return a.str
	}
}
