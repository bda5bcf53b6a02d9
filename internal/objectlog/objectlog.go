// Package objectlog defines the intermediate representation queries and
// rule conditions are compiled into: ObjectLog, a typed Datalog variant
// (Litwin & Risch) where stored functions become facts (base relations)
// and derived functions become Horn clauses (derived relations).
//
// A literal may reference a predicate's current state, its old state
// (logical rollback), or one of its differentials Δ+P / Δ−P — these
// annotated references are what the partial differencing compiler in
// internal/diff produces (§4.3–§4.4 of the paper).
package objectlog

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"partdiff/internal/types"
)

// Term is a variable or a constant.
type Term struct {
	IsVar bool
	Var   string
	Const types.Value
}

// V returns a variable term.
func V(name string) Term { return Term{IsVar: true, Var: name} }

// C returns a constant term.
func C(v types.Value) Term { return Term{Const: v} }

// CInt returns a constant integer term.
func CInt(i int64) Term { return C(types.Int(i)) }

// String renders the term: variables by name, constants by value.
func (t Term) String() string {
	if t.IsVar {
		return t.Var
	}
	return t.Const.String()
}

// Equal reports structural equality of terms.
func (t Term) Equal(u Term) bool {
	if t.IsVar != u.IsVar {
		return false
	}
	if t.IsVar {
		return t.Var == u.Var
	}
	return t.Const.Equal(u.Const)
}

// DeltaKind annotates a literal with which state of its predicate it
// references.
type DeltaKind int

// The delta annotations.
const (
	// DeltaNone references the predicate's full extent.
	DeltaNone DeltaKind = iota
	// DeltaPlus references Δ+P — the net insertions.
	DeltaPlus
	// DeltaMinus references Δ−P — the net deletions.
	DeltaMinus
)

// String renders the annotation as a prefix.
func (d DeltaKind) String() string {
	switch d {
	case DeltaPlus:
		return "Δ+"
	case DeltaMinus:
		return "Δ-"
	default:
		return ""
	}
}

// Builtin predicate names. Comparisons test two bound arguments;
// arithmetic literals op(a,b,r) compute r from bound a,b (or test r if
// bound). eq(a,b) binds whichever side is free, or tests if both bound.
const (
	BuiltinLT    = "lt"
	BuiltinLE    = "le"
	BuiltinGT    = "gt"
	BuiltinGE    = "ge"
	BuiltinEQ    = "eq"
	BuiltinNE    = "ne"
	BuiltinPlus  = "plus"
	BuiltinMinus = "minus"
	BuiltinTimes = "times"
	BuiltinDiv   = "div"
)

// IsBuiltin reports whether name is an evaluable builtin predicate.
func IsBuiltin(name string) bool {
	switch name {
	case BuiltinLT, BuiltinLE, BuiltinGT, BuiltinGE, BuiltinEQ, BuiltinNE,
		BuiltinPlus, BuiltinMinus, BuiltinTimes, BuiltinDiv:
		return true
	}
	return false
}

// IsComparison reports whether name is a two-argument test builtin.
func IsComparison(name string) bool {
	switch name {
	case BuiltinLT, BuiltinLE, BuiltinGT, BuiltinGE, BuiltinEQ, BuiltinNE:
		return true
	}
	return false
}

// IsArithmetic reports whether name is a three-argument computing
// builtin.
func IsArithmetic(name string) bool {
	switch name {
	case BuiltinPlus, BuiltinMinus, BuiltinTimes, BuiltinDiv:
		return true
	}
	return false
}

// TypePredPrefix marks predicates that denote type extents: the literal
// type:item(I) iterates all instances of type item (the "for each item i"
// of AMOSQL).
const TypePredPrefix = "type:"

// TypePred returns the extent predicate name for a type.
func TypePred(typeName string) string { return TypePredPrefix + typeName }

// IsTypePred reports whether the predicate denotes a type extent, and if
// so which type.
func IsTypePred(name string) (string, bool) {
	if strings.HasPrefix(name, TypePredPrefix) {
		return name[len(TypePredPrefix):], true
	}
	return "", false
}

// Literal is one atom of a clause body (or a clause head).
type Literal struct {
	Pred    string
	Args    []Term
	Negated bool      // safe negation (¬P): all variables bound elsewhere
	Delta   DeltaKind // reference Δ+P / Δ−P instead of P
	Old     bool      // evaluate P in the old database state (P_old)
}

// Lit builds a positive, current-state literal.
func Lit(pred string, args ...Term) Literal {
	return Literal{Pred: pred, Args: args}
}

// NotLit builds a negated literal.
func NotLit(pred string, args ...Term) Literal {
	return Literal{Pred: pred, Args: args, Negated: true}
}

// WithDelta returns a copy of l annotated with the given delta kind.
func (l Literal) WithDelta(d DeltaKind) Literal {
	l2 := l.clone()
	l2.Delta = d
	return l2
}

// WithOld returns a copy of l marked to evaluate in the old state.
// Delta-annotated and builtin literals are unaffected by old-state
// marking (Δ-sets are state-period values; builtins are state-free).
func (l Literal) WithOld() Literal {
	l2 := l.clone()
	if l2.Delta == DeltaNone && !IsBuiltin(l2.Pred) {
		l2.Old = true
	}
	return l2
}

func (l Literal) clone() Literal {
	args := make([]Term, len(l.Args))
	copy(args, l.Args)
	l.Args = args
	return l
}

// Vars appends the variable names of the literal to dst (with
// duplicates).
func (l Literal) Vars(dst []string) []string {
	for _, a := range l.Args {
		if a.IsVar {
			dst = append(dst, a.Var)
		}
	}
	return dst
}

// Rename returns a copy of the literal with every variable renamed
// through sub (variables not in sub are kept).
func (l Literal) Rename(sub map[string]string) Literal {
	l2 := l.clone()
	for i, a := range l2.Args {
		if a.IsVar {
			if nv, ok := sub[a.Var]; ok {
				l2.Args[i] = V(nv)
			}
		}
	}
	return l2
}

// Substitute returns a copy with variables replaced by terms per sub.
func (l Literal) Substitute(sub map[string]Term) Literal {
	l2 := l.clone()
	for i, a := range l2.Args {
		if a.IsVar {
			if nt, ok := sub[a.Var]; ok {
				l2.Args[i] = nt
			}
		}
	}
	return l2
}

// String renders the literal in paper style, e.g. Δ+quantity(I,_G1),
// r_old(Y,Z), ¬supplies(S,I), _G1 < _G2.
func (l Literal) String() string {
	var sb strings.Builder
	if l.Negated {
		sb.WriteString("¬")
	}
	if IsComparison(l.Pred) && len(l.Args) == 2 {
		op := map[string]string{
			BuiltinLT: "<", BuiltinLE: "<=", BuiltinGT: ">",
			BuiltinGE: ">=", BuiltinEQ: "=", BuiltinNE: "!=",
		}[l.Pred]
		fmt.Fprintf(&sb, "%s %s %s", l.Args[0], op, l.Args[1])
		return sb.String()
	}
	if IsArithmetic(l.Pred) && len(l.Args) == 3 {
		op := map[string]string{
			BuiltinPlus: "+", BuiltinMinus: "-", BuiltinTimes: "*", BuiltinDiv: "/",
		}[l.Pred]
		fmt.Fprintf(&sb, "%s = %s %s %s", l.Args[2], l.Args[0], op, l.Args[1])
		return sb.String()
	}
	sb.WriteString(l.Delta.String())
	sb.WriteString(l.Pred)
	if l.Old {
		sb.WriteString("_old")
	}
	sb.WriteByte('(')
	for i, a := range l.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// Clause is a Horn clause: Head ← Body (a conjunction).
type Clause struct {
	Head Literal
	Body []Literal
}

// NewClause builds a clause.
func NewClause(head Literal, body ...Literal) Clause {
	return Clause{Head: head, Body: body}
}

// Clone returns a deep copy of the clause.
func (c Clause) Clone() Clause {
	h := c.Head.clone()
	body := make([]Literal, len(c.Body))
	for i, l := range c.Body {
		body[i] = l.clone()
	}
	return Clause{Head: h, Body: body}
}

// Vars returns the distinct variable names of the clause, in first-use
// order.
func (c Clause) Vars() []string {
	var all []string
	all = c.Head.Vars(all)
	for _, l := range c.Body {
		all = l.Vars(all)
	}
	seen := map[string]bool{}
	var out []string
	for _, v := range all {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Rename returns a copy with all variables renamed through sub.
func (c Clause) Rename(sub map[string]string) Clause {
	out := Clause{Head: c.Head.Rename(sub)}
	out.Body = make([]Literal, len(c.Body))
	for i, l := range c.Body {
		out.Body[i] = l.Rename(sub)
	}
	return out
}

// RenameApart returns a copy of the clause with every variable given a
// fresh name using the counter, so it shares no variables with any other
// clause. The counter is advanced.
func (c Clause) RenameApart(counter *int) Clause {
	sub := map[string]string{}
	for _, v := range c.Vars() {
		*counter++
		sub[v] = fmt.Sprintf("_R%d", *counter)
	}
	return c.Rename(sub)
}

// String renders the clause in paper style:
//
//	p(X,Z) ← q(X,Y) ∧ r(Y,Z)
func (c Clause) String() string {
	var sb strings.Builder
	sb.WriteString(c.Head.String())
	if len(c.Body) == 0 {
		return sb.String()
	}
	sb.WriteString(" ← ")
	for i, l := range c.Body {
		if i > 0 {
			sb.WriteString(" ∧ ")
		}
		sb.WriteString(l.String())
	}
	return sb.String()
}

// Aggregate operators (extension beyond the paper's core; aggregates
// are listed as future work in §8).
const (
	AggCount = "count"
	AggSum   = "sum"
	AggMin   = "min"
	AggMax   = "max"
)

// IsAggregateOp reports whether op is a supported aggregate operator.
func IsAggregateOp(op string) bool {
	switch op {
	case AggCount, AggSum, AggMin, AggMax:
		return true
	}
	return false
}

// Def is a derived predicate definition: one or more clauses with the
// same head predicate. Multiple clauses form a disjunction (ObjectLog
// puts disjunctions in the body; after DNF normalization each disjunct
// is a clause).
type Def struct {
	Name    string
	Arity   int
	Clauses []Clause

	// Aggregate, when non-empty, marks this definition as an aggregate
	// view. The clauses compute the pre-aggregation relation: the
	// first GroupCols head columns are the group key, the LAST column
	// is the aggregated value, and any columns in between are witnesses
	// that preserve multiplicity under set semantics (e.g. the employee
	// whose salary is summed). The externally visible extent has arity
	// GroupCols+1: one tuple per group, with the folded value last.
	// Aggregate views are never expanded inline and are monitored by
	// re-evaluation (old state vs new state) rather than by partial
	// differentials.
	Aggregate string
	// GroupCols is the number of leading group-key columns of an
	// aggregate definition.
	GroupCols int
}

// ExternalArity is the arity of the predicate as seen by callers: for
// aggregate views GroupCols+1, otherwise Arity.
func (d *Def) ExternalArity() int {
	if d.Aggregate != "" {
		return d.GroupCols + 1
	}
	return d.Arity
}

// String renders the definition, one clause per line, prefixed with the
// aggregate operator for aggregate views.
func (d *Def) String() string {
	var sb strings.Builder
	if d.Aggregate != "" {
		fmt.Fprintf(&sb, "%s[%s/%d] ", d.Name, d.Aggregate, d.GroupCols)
	}
	for i, c := range d.Clauses {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(c.String())
	}
	return sb.String()
}

// Influents returns the distinct predicate names the definition's bodies
// reference (excluding builtins), sorted. These are the influents I_p of
// the paper: the relations whose changes can affect this predicate.
func (d *Def) Influents() []string {
	seen := map[string]bool{}
	for _, c := range d.Clauses {
		for _, l := range c.Body {
			if !IsBuiltin(l.Pred) {
				seen[l.Pred] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Program is a set of derived predicate definitions. Base predicates are
// any names not defined here (resolved against storage at evaluation
// time).
type Program struct {
	defs  map[string]*Def
	epoch uint64
	// extents maps a stored relation to, per column, the types whose
	// extents every value of that column lies in (SetColumnExtents).
	extents map[string][][]string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{defs: map[string]*Def{}, extents: map[string][][]string{}}
}

// SetColumnExtents records that every value in column i of the stored
// relation pred lies in the extent of each type named in cols[i] — the
// referential invariant the schema layer enforces on updates and
// deletions. Evaluation relies on it to drop type-extent literals the
// relation already implies, so a relation must not be registered unless
// every state a plan reads satisfies it.
func (p *Program) SetColumnExtents(pred string, cols [][]string) {
	p.extents[pred] = cols
	p.epoch++
}

// Implies reports whether every value in column col of pred lies in the
// extent of typeName.
func (p *Program) Implies(pred string, col int, typeName string) bool {
	cols := p.extents[pred]
	return col < len(cols) && slices.Contains(cols[col], typeName)
}

// Define registers a derived predicate definition, replacing any
// previous definition of the same name.
func (p *Program) Define(d *Def) error {
	if d.Name == "" {
		return fmt.Errorf("definition must be named")
	}
	for _, c := range d.Clauses {
		if c.Head.Pred != d.Name {
			return fmt.Errorf("clause head %q does not match definition %q", c.Head.Pred, d.Name)
		}
		if len(c.Head.Args) != d.Arity {
			return fmt.Errorf("definition %q: clause head arity %d, want %d", d.Name, len(c.Head.Args), d.Arity)
		}
	}
	p.defs[d.Name] = d
	p.epoch++
	return nil
}

// Epoch counts the definitions made so far. Anything compiled against
// the program (evaluator plans) is stale once it moves.
func (p *Program) Epoch() uint64 { return p.epoch }

// Def looks up a derived definition.
func (p *Program) Def(name string) (*Def, bool) {
	d, ok := p.defs[name]
	return d, ok
}

// IsDerived reports whether name has a derived definition.
func (p *Program) IsDerived(name string) bool {
	_, ok := p.defs[name]
	return ok
}

// Names returns the derived predicate names, sorted.
func (p *Program) Names() []string {
	out := make([]string, 0, len(p.defs))
	for n := range p.defs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// reachable reports whether target is reachable from the body of from's
// definition through derived predicates.
func (p *Program) reachable(from, target string, seen map[string]bool) bool {
	def, ok := p.defs[from]
	if !ok {
		return false
	}
	for _, infl := range def.Influents() {
		if infl == target {
			return true
		}
		if seen[infl] {
			continue
		}
		seen[infl] = true
		if p.reachable(infl, target, seen) {
			return true
		}
	}
	return false
}

// IsRecursive reports whether the named predicate (transitively)
// depends on itself.
func (p *Program) IsRecursive(name string) bool {
	return p.reachable(name, name, map[string]bool{})
}

// Component returns the names of all derived predicates in name's
// recursive component (predicates that both reach name and are reached
// from it), including name itself when recursive. The result is sorted.
func (p *Program) Component(name string) []string {
	if !p.IsRecursive(name) {
		return nil
	}
	var out []string
	for n := range p.defs {
		if n == name {
			out = append(out, n)
			continue
		}
		if p.reachable(name, n, map[string]bool{}) && p.reachable(n, name, map[string]bool{}) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
