package ps

import (
	"fmt"
	"maps"
	"slices"
)

// smallDict is the size up to which a dictionary is searched linearly.
// Past it, the dictionary keeps a map index. Procedure locals, arch
// dictionaries and type dictionaries stay below it.
const smallDict = 16

// dictKey is the comparable projection of a key that is neither a name
// nor a string, for the index of a large dictionary. Integer and real
// keys with the same value collide, matching `eq`; composites compare
// by identity.
type dictKey struct {
	kind Kind
	n    float64
	p    any
}

func otherKey(o Object) dictKey {
	switch o.Kind {
	case KInt, KReal:
		return dictKey{kind: KInt, n: o.Num()}
	case KBool:
		if o.B {
			return dictKey{kind: KBool, n: 1}
		}
		return dictKey{kind: KBool}
	case KArray:
		return dictKey{kind: KArray, p: o.A}
	case KDict:
		return dictKey{kind: KDict, p: o.D}
	case KOperator:
		return dictKey{kind: KOperator, p: o.Op}
	case KExt:
		return dictKey{kind: KExt, p: o.X}
	}
	return dictKey{kind: o.Kind}
}

// keyable reports whether o may be used as a dictionary key.
func keyable(o Object) bool {
	switch o.Kind {
	case KMark, KFile:
		return false
	}
	return o.Kind <= KExt
}

func isText(o Object) bool { return o.Kind == KName || o.Kind == KString }

type dictEntry struct {
	key Object
	val Object
}

// Dict is a PostScript dictionary. Iteration order is insertion order,
// so `forall` and `==` are deterministic. Names and strings share key
// space (as in PostScript), integer and real keys with the same value
// collide, matching `eq`, and composite keys compare by identity.
type Dict struct {
	items []dictEntry
	// Past smallDict entries, names indexes the name and string keys of
	// items and others the rest.
	names  map[string]int32
	others map[dictKey]int32
	frozen bool
}

// maxDictHint caps the room NewDict sets aside, so that a hostile
// `N dict` cannot make one allocation of any size it likes.
const maxDictHint = 64

// NewDict returns an empty dictionary. The capacity hint may be zero;
// dictionaries grow without bound, as in Level-2 PostScript.
func NewDict(capacity int) *Dict {
	return &Dict{items: make([]dictEntry, 0, min(max(capacity, 0), maxDictHint))}
}

// Len returns the number of key/value pairs.
func (d *Dict) Len() int { return len(d.items) }

// Frozen reports whether d is read-only (see Freeze).
func (d *Dict) Frozen() bool { return d.frozen }

// find returns the index of key in items.
func (d *Dict) find(key Object) (int, bool) {
	if isText(key) {
		return d.findName(key.S)
	}
	if d.names != nil {
		i, ok := d.others[otherKey(key)]
		return int(i), ok
	}
	for i := range d.items {
		if Equal(d.items[i].key, key) {
			return i, true
		}
	}
	return 0, false
}

func (d *Dict) findName(name string) (int, bool) {
	if d.names != nil {
		i, ok := d.names[name]
		return int(i), ok
	}
	for i := range d.items {
		if k := &d.items[i].key; k.S == name && isText(*k) {
			return i, true
		}
	}
	return 0, false
}

// index records items[i] in the map index.
func (d *Dict) index(i int) {
	k := d.items[i].key
	if isText(k) {
		d.names[k.S] = int32(i)
		return
	}
	if d.others == nil {
		d.others = make(map[dictKey]int32)
	}
	d.others[otherKey(k)] = int32(i)
}

// reindex rebuilds the map index, or drops it once the dictionary is
// small again.
func (d *Dict) reindex() {
	d.names, d.others = nil, nil
	if len(d.items) <= smallDict {
		return
	}
	d.names = make(map[string]int32, cap(d.items))
	for i := range d.items {
		d.index(i)
	}
}

func readOnly(what string) error {
	return &Error{Name: "invalidaccess", Cmd: what + " is read-only"}
}

// Get looks up key; ok reports whether it was present.
func (d *Dict) Get(key Object) (Object, bool) {
	if !keyable(key) {
		return Object{}, false
	}
	if i, ok := d.find(key); ok {
		return d.items[i].val, true
	}
	return Object{}, false
}

// GetName looks up a name key given as a Go string.
func (d *Dict) GetName(name string) (Object, bool) {
	if i, ok := d.findName(name); ok {
		return d.items[i].val, true
	}
	return Object{}, false
}

// Put stores val under key, replacing any existing binding. A frozen
// dictionary refuses with invalidaccess.
func (d *Dict) Put(key, val Object) error {
	if !keyable(key) {
		return typecheck("dict key", key)
	}
	if d.frozen {
		return readOnly("dictionary")
	}
	if i, ok := d.find(key); ok {
		d.items[i].val = val
		return nil
	}
	d.items = append(d.items, dictEntry{key: key, val: val})
	if d.names != nil {
		d.index(len(d.items) - 1)
	} else if len(d.items) > smallDict {
		d.reindex()
	}
	return nil
}

// PutName stores val under the name key given as a Go string.
func (d *Dict) PutName(name string, val Object) {
	if err := d.Put(LitName(name), val); err != nil {
		panic(fmt.Sprintf("ps: PutName(%q): %v", name, err))
	}
}

// Undef removes key if present. A frozen dictionary refuses with
// invalidaccess.
func (d *Dict) Undef(key Object) error {
	if d.frozen {
		return readOnly("dictionary")
	}
	if !keyable(key) {
		return nil
	}
	i, ok := d.find(key)
	if !ok {
		return nil
	}
	d.items = slices.Delete(d.items, i, i+1)
	if d.names != nil {
		d.reindex()
	}
	return nil
}

// Copy returns a writable shallow copy of d: the same keys and values,
// in the same order.
func (d *Dict) Copy() *Dict {
	return &Dict{items: slices.Clone(d.items), names: maps.Clone(d.names), others: maps.Clone(d.others)}
}

// Keys returns the keys in insertion order.
func (d *Dict) Keys() []Object {
	keys := make([]Object, len(d.items))
	for i, it := range d.items {
		keys[i] = it.key
	}
	return keys
}

// ForAll calls f on each pair in insertion order; a non-nil error stops
// the iteration and is returned.
func (d *Dict) ForAll(f func(k, v Object) error) error {
	// Iterate over a snapshot so that f may mutate d.
	snapshot := slices.Clone(d.items)
	for _, it := range snapshot {
		if err := f(it.key, it.val); err != nil {
			return err
		}
	}
	return nil
}

// Freeze makes o, and every array and dictionary reachable from it,
// read-only: `put`, `def`, `store`, `astore` and `undef` on them raise
// invalidaccess. Frozen objects are never written again, so any number
// of interpreters may share them.
func Freeze(o Object) { freeze(&o) }

func freeze(o *Object) {
	switch o.Kind {
	case KArray:
		if o.A.frozen {
			return
		}
		o.A.frozen = true
		for i := range o.A.E {
			freeze(&o.A.E[i])
		}
	case KDict:
		if o.D.frozen {
			return
		}
		o.D.frozen = true
		// A frozen dictionary never grows: give back the room set aside
		// for entries it will not get.
		if cap(o.D.items) > len(o.D.items) {
			o.D.items = append([]dictEntry(nil), o.D.items...)
		}
		for i := range o.D.items {
			freeze(&o.D.items[i].key)
			freeze(&o.D.items[i].val)
		}
	}
}
