package sql

// The AST mirrors the docs/SQL.md grammar one production per type.
// Positions are byte offsets into the statement text, carried so the
// binder can report §7 taxonomy errors against the original source.

// Statement is a parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is docs/SQL.md §3.1:
//
//	SELECT select_list FROM table { JOIN table ON col = col }
//	[WHERE predicate] [GROUP BY col] [ORDER BY col [ASC|DESC]] [LIMIT n]
type SelectStmt struct {
	Star     bool         // SELECT *
	Items    []SelectItem // empty iff Star
	From     []TableRef   // FROM table then each JOINed table, in order
	Joins    []JoinCond   // len(From)-1 ON conditions
	Where    Expr         // nil if absent
	GroupBy  *ColRef      // nil if absent
	OrderBy  *ColRef      // nil if absent
	Desc     bool         // ORDER BY ... DESC
	Limit    int64        // -1 if absent
	LimitPos int
}

// InsertStmt is docs/SQL.md §3.2:
//
//	INSERT INTO table [(col {, col})] VALUES (literal {, literal}) {, (...)}
type InsertStmt struct {
	Table TableRef
	Cols  []ColRef    // nil = schema order
	Rows  [][]Literal // one or more VALUES rows
}

// DeleteStmt is docs/SQL.md §3.3:
//
//	DELETE FROM table [WHERE predicate]
type DeleteStmt struct {
	Table TableRef
	Where Expr // nil = delete every row
}

func (*SelectStmt) stmt() {}
func (*InsertStmt) stmt() {}
func (*DeleteStmt) stmt() {}

// TableRef names a relation.
type TableRef struct {
	Name string
	Pos  int
}

// ColRef is a possibly table-qualified column reference (§2.3).
type ColRef struct {
	Table string // "" if unqualified
	Name  string
	Pos   int
}

// String renders the reference as written.
func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// SelectItem is one select-list entry: a column or an aggregate call.
type SelectItem struct {
	Col *ColRef // exactly one of Col/Agg is set
	Agg *AggCall
}

// AggCall is COUNT(*) or FUNC(col) with FUNC in COUNT/SUM/MIN/MAX/AVG.
type AggCall struct {
	Func string // canonical upper case
	Star bool   // COUNT(*)
	Col  ColRef // valid unless Star
	Pos  int
}

// String renders the call as written (canonical case).
func (a AggCall) String() string {
	if a.Star {
		return a.Func + "(*)"
	}
	return a.Func + "(" + a.Col.String() + ")"
}

// JoinCond is one ON equijoin condition between two column refs.
type JoinCond struct {
	Left, Right ColRef
	Pos         int
}

// Expr is a boolean predicate expression (§3.4).
type Expr interface{ expr() }

// AndExpr / OrExpr combine two predicates.
type AndExpr struct{ L, R Expr }
type OrExpr struct{ L, R Expr }

// NotExpr negates a predicate.
type NotExpr struct{ E Expr }

// CmpExpr is a leaf: column <op> literal, op one of = != < <= > >=.
type CmpExpr struct {
	Col ColRef
	Op  string // canonical: = != < <= > >=
	Lit Literal
	Pos int
}

func (*AndExpr) expr() {}
func (*OrExpr) expr()  {}
func (*NotExpr) expr() {}
func (*CmpExpr) expr() {}

// Literal kinds (§2.4).
type LitKind int

const (
	LitInt LitKind = iota
	LitFloat
	LitString
)

// Literal is a typed constant.
type Literal struct {
	Kind LitKind
	I    int64
	F    float64
	S    string
	Pos  int
}
