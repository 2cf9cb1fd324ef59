package sql

import "strconv"

// Parse tokenizes and parses one statement (docs/SQL.md §3). A trailing
// semicolon is allowed. Errors are *Error values carrying the §7
// taxonomy code and the byte offset of the offending token.
func Parse(src string) (Statement, error) {
	toks, lerr := lex(src)
	if lerr != nil {
		return nil, lerr
	}
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if p.peek().kind != tokEOF {
		return nil, errf(ErrSyntax, p.peek().pos, "unexpected %s after end of statement", describe(p.peek()))
	}
	return stmt, nil
}

// IsSelect reports whether the statement's first word is SELECT
// (case-insensitive, after whitespace). The grammar dispatches on the
// first keyword and has no comments, so such a statement can never
// mutate — which is all a router or a retry guard needs to know without
// parsing. Anything else, including text that is not SQL, is not a read.
func IsSelect(src string) bool {
	i := 0
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	const kw = "select"
	if len(src)-i < len(kw) {
		return false
	}
	for j := 0; j < len(kw); j++ {
		if src[i+j]|0x20 != kw[j] { // ASCII letters fold with one bit
			return false
		}
	}
	return len(src)-i == len(kw) || !isIdentPart(src[i+len(kw)])
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

// accept consumes the next token iff it matches kind and (when non-empty)
// text.
func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		p.next()
		return true
	}
	return false
}

// expect consumes a token of the given kind/text or fails with §7.2.
func (p *parser) expect(kind tokKind, text, what string) (token, *Error) {
	t := p.peek()
	if t.kind == kind && (text == "" || t.text == text) {
		return p.next(), nil
	}
	return token{}, errf(ErrSyntax, t.pos, "expected %s, found %s", what, describe(t))
}

func describe(t token) string {
	switch t.kind {
	case tokEOF:
		return "end of statement"
	case tokIdent:
		return "identifier " + strconv.Quote(t.text)
	case tokKeyword:
		return t.text
	case tokInt, tokFloat:
		return "number " + t.text
	case tokString:
		return "string " + strconv.Quote(t.text)
	default:
		return strconv.Quote(t.text)
	}
}

func (p *parser) statement() (Statement, *Error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, errf(ErrSyntax, t.pos, "expected SELECT, INSERT or DELETE, found %s", describe(t))
	}
	switch t.text {
	case "SELECT":
		return p.selectStmt()
	case "INSERT":
		return p.insertStmt()
	case "DELETE":
		return p.deleteStmt()
	default:
		return nil, errf(ErrSyntax, t.pos, "expected SELECT, INSERT or DELETE, found %s", t.text)
	}
}

// selectStmt parses docs/SQL.md §3.1.
func (p *parser) selectStmt() (*SelectStmt, *Error) {
	p.next() // SELECT
	s := &SelectStmt{Limit: -1}

	if p.accept(tokSymbol, "*") {
		s.Star = true
	} else {
		for {
			item, err := p.selectItem()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}

	if _, err := p.expect(tokKeyword, "FROM", "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s.From = append(s.From, tbl)

	for p.accept(tokKeyword, "JOIN") {
		tbl, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, tbl)
		onTok, err := p.expect(tokKeyword, "ON", "ON")
		if err != nil {
			return nil, err
		}
		left, err := p.colRef()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "=", "'=' in join condition"); err != nil {
			return nil, err
		}
		right, err := p.colRef()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinCond{Left: left, Right: right, Pos: onTok.pos})
	}

	if p.accept(tokKeyword, "WHERE") {
		w, err := p.predicate()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}

	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY", "BY after GROUP"); err != nil {
			return nil, err
		}
		g, err := p.colRef()
		if err != nil {
			return nil, err
		}
		s.GroupBy = &g
	}

	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY", "BY after ORDER"); err != nil {
			return nil, err
		}
		o, err := p.colRef()
		if err != nil {
			return nil, err
		}
		s.OrderBy = &o
		if p.accept(tokKeyword, "DESC") {
			s.Desc = true
		} else {
			p.accept(tokKeyword, "ASC")
		}
	}

	if p.accept(tokKeyword, "LIMIT") {
		t, err := p.expect(tokInt, "", "a non-negative integer after LIMIT")
		if err != nil {
			return nil, err
		}
		n, _ := strconv.ParseInt(t.text, 10, 64)
		s.Limit = n
		s.LimitPos = t.pos
	}
	return s, nil
}

// selectItem parses a column reference or an aggregate call. Aggregate
// names are contextual: an identifier directly followed by '(' is a
// call; COUNT/SUM/MIN/MAX/AVG are the only valid functions (§3.1.1).
func (p *parser) selectItem() (SelectItem, *Error) {
	t := p.peek()
	if t.kind == tokIdent && p.toks[p.i+1].kind == tokSymbol && p.toks[p.i+1].text == "(" {
		call, err := p.aggCall()
		if err != nil {
			return SelectItem{}, err
		}
		return SelectItem{Agg: call}, nil
	}
	c, err := p.colRef()
	if err != nil {
		return SelectItem{}, err
	}
	return SelectItem{Col: &c}, nil
}

func (p *parser) aggCall() (*AggCall, *Error) {
	name := p.next() // identifier
	fn := ""
	switch upper(name.text) {
	case "COUNT", "SUM", "MIN", "MAX", "AVG":
		fn = upper(name.text)
	default:
		return nil, errf(ErrSyntax, name.pos, "unknown aggregate function %q (want COUNT, SUM, MIN, MAX or AVG)", name.text)
	}
	p.next() // (
	call := &AggCall{Func: fn, Pos: name.pos}
	if p.accept(tokSymbol, "*") {
		if fn != "COUNT" {
			return nil, errf(ErrSyntax, name.pos, "%s(*) is not valid; only COUNT(*) may take *", fn)
		}
		call.Star = true
	} else {
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		call.Col = c
	}
	if _, err := p.expect(tokSymbol, ")", "')' closing aggregate call"); err != nil {
		return nil, err
	}
	return call, nil
}

func (p *parser) tableRef() (TableRef, *Error) {
	t, err := p.expect(tokIdent, "", "a table name")
	if err != nil {
		return TableRef{}, err
	}
	return TableRef{Name: t.text, Pos: t.pos}, nil
}

// colRef parses ident or ident.ident (§2.3).
func (p *parser) colRef() (ColRef, *Error) {
	t, err := p.expect(tokIdent, "", "a column reference")
	if err != nil {
		return ColRef{}, err
	}
	if p.accept(tokSymbol, ".") {
		c, err := p.expect(tokIdent, "", "a column name after '.'")
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: t.text, Name: c.text, Pos: t.pos}, nil
	}
	return ColRef{Name: t.text, Pos: t.pos}, nil
}

// predicate parses the OR level (§3.4); AND binds tighter than OR, NOT
// tighter than AND.
func (p *parser) predicate() (Expr, *Error) {
	l, err := p.andTerm()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.andTerm()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andTerm() (Expr, *Error) {
	l, err := p.factor()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.factor()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) factor() (Expr, *Error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.factor()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	if p.accept(tokSymbol, "(") {
		e, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")", "')'"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, *Error) {
	col, err := p.colRef()
	if err != nil {
		return nil, err
	}
	op := p.peek()
	switch {
	case op.kind == tokSymbol && (op.text == "=" || op.text == "!=" || op.text == "<" ||
		op.text == "<=" || op.text == ">" || op.text == ">="):
		p.next()
	default:
		return nil, errf(ErrSyntax, op.pos, "expected a comparison operator, found %s", describe(op))
	}
	lit, lerr := p.literal()
	if lerr != nil {
		return nil, lerr
	}
	return &CmpExpr{Col: col, Op: op.text, Lit: lit, Pos: op.pos}, nil
}

// literal parses [-] number | string (§2.4).
func (p *parser) literal() (Literal, *Error) {
	neg := false
	start := p.peek().pos
	if p.accept(tokSymbol, "-") {
		neg = true
	}
	t := p.peek()
	switch t.kind {
	case tokInt:
		p.next()
		text := t.text
		if neg {
			text = "-" + text // the lexer admits 2^63 only here
		}
		v, _ := strconv.ParseInt(text, 10, 64)
		return Literal{Kind: LitInt, I: v, Pos: start}, nil
	case tokFloat:
		p.next()
		v, _ := strconv.ParseFloat(t.text, 64)
		if neg {
			v = -v
		}
		return Literal{Kind: LitFloat, F: v, Pos: start}, nil
	case tokString:
		if neg {
			return Literal{}, errf(ErrSyntax, t.pos, "'-' must be followed by a number")
		}
		p.next()
		return Literal{Kind: LitString, S: t.text, Pos: start}, nil
	default:
		return Literal{}, errf(ErrSyntax, t.pos, "expected a literal, found %s", describe(t))
	}
}

// insertStmt parses docs/SQL.md §3.2.
func (p *parser) insertStmt() (*InsertStmt, *Error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO", "INTO"); err != nil {
		return nil, err
	}
	tbl, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s := &InsertStmt{Table: tbl}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.expect(tokIdent, "", "a column name")
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, ColRef{Name: c.text, Pos: c.pos})
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")", "')' closing the column list"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES", "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "(", "'(' opening a VALUES row"); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")", "')' closing a VALUES row"); err != nil {
			return nil, err
		}
		s.Rows = append(s.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return s, nil
}

// deleteStmt parses docs/SQL.md §3.3.
func (p *parser) deleteStmt() (*DeleteStmt, *Error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM", "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.tableRef()
	if err != nil {
		return nil, err
	}
	s := &DeleteStmt{Table: tbl}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.predicate()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'a' && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}
