// Package catalog implements the schema layer of the functional data
// model used by AMOS (after Daplex and Iris): user types with single
// inheritance, object instances identified by OIDs, and functions that
// are stored (base relations / object attributes), derived (views /
// methods), or foreign (procedural, here: Go functions).
package catalog

import (
	"fmt"
	"sort"
	"sync"

	"partdiff/internal/types"
)

// Builtin scalar type names. User types are everything else.
const (
	TypeInteger = "integer"
	TypeReal    = "real"
	TypeString  = "charstring"
	TypeBoolean = "boolean"
)

// IsScalarType reports whether name denotes a builtin scalar type.
func IsScalarType(name string) bool {
	switch name {
	case TypeInteger, TypeReal, TypeString, TypeBoolean:
		return true
	}
	return false
}

// Type is a user-defined object type. Types form an inheritance DAG
// rooted at the implicit type "object" — as in the Iris data model, a
// type may have several supertypes and an object belongs to one or
// several types.
type Type struct {
	Name   string
	Supers []*Type // empty for roots
}

// Super returns the first supertype (nil for roots) — a convenience
// for the common single-inheritance case.
func (t *Type) Super() *Type {
	if len(t.Supers) == 0 {
		return nil
	}
	return t.Supers[0]
}

// IsSubtypeOf reports whether t is name or a (transitive) subtype of it.
func (t *Type) IsSubtypeOf(name string) bool {
	if name == "object" {
		return true
	}
	if t == nil {
		return false
	}
	if t.Name == name {
		return true
	}
	for _, s := range t.Supers {
		if s.IsSubtypeOf(name) {
			return true
		}
	}
	return false
}

// AllSupertypes returns t and every (transitive) supertype, each once.
func (t *Type) AllSupertypes() []*Type {
	seen := map[string]bool{}
	var out []*Type
	var walk func(*Type)
	walk = func(x *Type) {
		if x == nil || seen[x.Name] {
			return
		}
		seen[x.Name] = true
		out = append(out, x)
		for _, s := range x.Supers {
			walk(s)
		}
	}
	walk(t)
	return out
}

// FunctionKind classifies a function.
type FunctionKind int

// The function kinds of the AMOS data model.
const (
	// Stored functions equal object attributes or base tables.
	Stored FunctionKind = iota
	// Derived functions equal methods or relational views.
	Derived
	// Foreign functions are written in a procedural language (here Go).
	Foreign
)

// String returns the kind name.
func (k FunctionKind) String() string {
	switch k {
	case Stored:
		return "stored"
	case Derived:
		return "derived"
	case Foreign:
		return "foreign"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ForeignFunc computes the set of result tuples for fully bound
// arguments. Each inner slice is one result row of the function's result
// arity (usually 1).
type ForeignFunc func(args []types.Value) ([][]types.Value, error)

// Procedure is a foreign procedure with side effects, usable as a rule
// action. The session may call it on a stack of its own, not the
// goroutine that issued the committing statement.
type Procedure func(args []types.Value) error

// Param is one formal parameter of a function.
type Param struct {
	Name string // may be empty for unnamed parameters
	Type string // type name (scalar or user type)
}

// Function is a schema-level function f(a1,...,an) -> (r1,...,rm).
// As a relation it has arity n+m with the argument columns first.
type Function struct {
	Name    string
	Kind    FunctionKind
	Params  []Param
	Results []string // result type names (usually one)

	// Body is the unexpanded definition of a derived function, owned by
	// the query compiler (an ObjectLog clause set). It is opaque to the
	// catalog to keep the schema layer dependency-free.
	Body any

	// Fn is the implementation of a foreign function.
	Fn ForeignFunc
}

// Arity is the relational arity (arguments + results).
func (f *Function) Arity() int { return len(f.Params) + len(f.Results) }

// KeyCols returns the argument column indexes (0..len(Params)-1); stored
// functions are keyed on their arguments (`set` replaces the result for a
// given argument binding).
func (f *Function) KeyCols() []int {
	cols := make([]int, len(f.Params))
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// ColumnTypes returns the type names of all relational columns.
func (f *Function) ColumnTypes() []string {
	out := make([]string, 0, f.Arity())
	for _, p := range f.Params {
		out = append(out, p.Type)
	}
	return append(out, f.Results...)
}

// Catalog is the schema registry: types, their instances, and functions.
// It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	types   map[string]*Type
	funcs   map[string]*Function
	procs   map[string]Procedure
	nextOID types.OID
	extent  map[string]map[types.OID]bool // type name -> direct instances
	objType map[types.OID]string          // oid -> direct type name
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		types:   make(map[string]*Type),
		funcs:   make(map[string]*Function),
		procs:   make(map[string]Procedure),
		nextOID: 1,
		extent:  make(map[string]map[types.OID]bool),
		objType: make(map[types.OID]string),
	}
}

// CreateType defines a new user type, optionally under one or several
// supertypes.
func (c *Catalog) CreateType(name string, supers ...string) (*Type, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if IsScalarType(name) {
		return nil, fmt.Errorf("type %q: cannot redefine builtin scalar type", name)
	}
	if _, ok := c.types[name]; ok {
		return nil, fmt.Errorf("type %q already exists", name)
	}
	var sups []*Type
	seen := map[string]bool{}
	for _, super := range supers {
		if super == "" {
			continue
		}
		if seen[super] {
			return nil, fmt.Errorf("supertype %q listed twice", super)
		}
		seen[super] = true
		sup, ok := c.types[super]
		if !ok {
			return nil, fmt.Errorf("supertype %q does not exist", super)
		}
		sups = append(sups, sup)
	}
	t := &Type{Name: name, Supers: sups}
	c.types[name] = t
	c.extent[name] = make(map[types.OID]bool)
	return t, nil
}

// Type looks up a user type by name.
func (c *Catalog) Type(name string) (*Type, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.types[name]
	return t, ok
}

// TypeNames returns the user type names in sorted order.
func (c *Catalog) TypeNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.types))
	for n := range c.types {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewObject allocates a fresh instance of the named type and returns its
// OID.
func (c *Catalog) NewObject(typeName string) (types.OID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.types[typeName]; !ok {
		return 0, fmt.Errorf("type %q does not exist", typeName)
	}
	oid := c.nextOID
	c.nextOID++
	c.extent[typeName][oid] = true
	c.objType[oid] = typeName
	return oid, nil
}

// RestoreObject re-creates an object with an explicit OID — the
// recovery path, replaying object births from a snapshot or the
// write-ahead log. The OID allocator is bumped past the restored OID so
// later NewObject calls cannot collide.
func (c *Catalog) RestoreObject(oid types.OID, typeName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.types[typeName]; !ok {
		return fmt.Errorf("type %q does not exist", typeName)
	}
	if have, ok := c.objType[oid]; ok {
		if have != typeName {
			return fmt.Errorf("object #%d already exists with type %s", uint64(oid), have)
		}
		return nil
	}
	c.extent[typeName][oid] = true
	c.objType[oid] = typeName
	if oid >= c.nextOID {
		c.nextOID = oid + 1
	}
	return nil
}

// NextOID returns the next OID the allocator would hand out.
func (c *Catalog) NextOID() types.OID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nextOID
}

// SetNextOID restores the allocator position (never backwards).
func (c *Catalog) SetNextOID(oid types.OID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if oid > c.nextOID {
		c.nextOID = oid
	}
}

// Objects returns every live object with its direct type, sorted by
// OID — the serializable object universe for snapshots.
func (c *Catalog) Objects() []ObjectRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]ObjectRecord, 0, len(c.objType))
	for oid, tn := range c.objType {
		out = append(out, ObjectRecord{OID: oid, Type: tn})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

// ObjectRecord is one entry of the serializable object universe.
type ObjectRecord struct {
	OID  types.OID
	Type string
}

// DeleteObject removes an instance from its type extent.
func (c *Catalog) DeleteObject(oid types.OID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	tn, ok := c.objType[oid]
	if !ok {
		return fmt.Errorf("object #%d does not exist", uint64(oid))
	}
	delete(c.extent[tn], oid)
	delete(c.objType, oid)
	return nil
}

// ObjectType returns the direct type name of an object.
func (c *Catalog) ObjectType(oid types.OID) (string, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tn, ok := c.objType[oid]
	return tn, ok
}

// IsInstanceOf reports whether oid is an instance of typeName, including
// via subtyping.
func (c *Catalog) IsInstanceOf(oid types.OID, typeName string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tn, ok := c.objType[oid]
	if !ok {
		return false
	}
	t := c.types[tn]
	return t != nil && t.IsSubtypeOf(typeName)
}

// Extent returns the OIDs of all instances of typeName, including
// instances of its subtypes, in ascending order.
func (c *Catalog) Extent(typeName string) []types.OID {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []types.OID
	for tn, t := range c.types {
		if t.IsSubtypeOf(typeName) {
			for oid := range c.extent[tn] {
				out = append(out, oid)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExtentSize returns the number of instances of typeName (with subtypes).
func (c *Catalog) ExtentSize(typeName string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for tn, t := range c.types {
		if t.IsSubtypeOf(typeName) {
			n += len(c.extent[tn])
		}
	}
	return n
}

// DeclareFunction registers a function. For stored functions the backing
// relation must be created separately (see internal/storage); the schema
// layers are kept decoupled.
func (c *Catalog) DeclareFunction(f *Function) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f.Name == "" {
		return fmt.Errorf("function must have a name")
	}
	if _, ok := c.funcs[f.Name]; ok {
		return fmt.Errorf("function %q already exists", f.Name)
	}
	if f.Kind == Foreign && f.Fn == nil {
		return fmt.Errorf("foreign function %q has no implementation", f.Name)
	}
	for _, p := range f.Params {
		if err := c.checkTypeLocked(p.Type); err != nil {
			return fmt.Errorf("function %q: %w", f.Name, err)
		}
	}
	for _, r := range f.Results {
		if err := c.checkTypeLocked(r); err != nil {
			return fmt.Errorf("function %q: %w", f.Name, err)
		}
	}
	c.funcs[f.Name] = f
	return nil
}

func (c *Catalog) checkTypeLocked(name string) error {
	if IsScalarType(name) {
		return nil
	}
	if _, ok := c.types[name]; !ok {
		return fmt.Errorf("unknown type %q", name)
	}
	return nil
}

// Function looks up a function by name.
func (c *Catalog) Function(name string) (*Function, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	f, ok := c.funcs[name]
	return f, ok
}

// FunctionNames returns all function names in sorted order.
func (c *Catalog) FunctionNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.funcs))
	for n := range c.funcs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetBody attaches the compiled definition of a derived function.
func (c *Catalog) SetBody(name string, body any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.funcs[name]
	if !ok {
		return fmt.Errorf("function %q does not exist", name)
	}
	if f.Kind != Derived {
		return fmt.Errorf("function %q is %s, not derived", name, f.Kind)
	}
	f.Body = body
	return nil
}

// RegisterProcedure registers a named foreign procedure (usable in rule
// actions).
func (c *Catalog) RegisterProcedure(name string, p Procedure) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p == nil {
		return fmt.Errorf("procedure %q is nil", name)
	}
	c.procs[name] = p
	return nil
}

// Procedure looks up a foreign procedure by name.
func (c *Catalog) Procedure(name string) (Procedure, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.procs[name]
	return p, ok
}

// ImpliedExtents returns the types whose extents hold every object that
// conforms to typeName: the type itself and its supertypes. A scalar
// type implies none, and neither does "object", to which every object
// conforms whatever its type.
func (c *Catalog) ImpliedExtents(typeName string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.types[typeName]
	if !ok || typeName == "object" {
		return nil
	}
	var out []string
	for _, sup := range t.AllSupertypes() {
		out = append(out, sup.Name)
	}
	return out
}

// ValueConformsTo reports whether a runtime value is acceptable for a
// column declared with the given type name (used for cheap dynamic
// checking at update time).
func (c *Catalog) ValueConformsTo(v types.Value, typeName string) bool {
	switch typeName {
	case TypeInteger:
		return v.Kind == types.KindInt
	case TypeReal:
		return v.IsNumeric()
	case TypeString:
		return v.Kind == types.KindString
	case TypeBoolean:
		return v.Kind == types.KindBool
	default:
		return v.Kind == types.KindObject && c.IsInstanceOf(v.O, typeName)
	}
}
