package sql

import (
	"strconv"
	"strings"
)

// tokKind enumerates token classes (docs/SQL.md §2).
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokInt
	tokFloat
	tokString
	tokSymbol // ( ) , . * ; and the comparison operators
)

// token is one lexeme with its byte offset.
type token struct {
	kind tokKind
	text string // keywords uppercased; symbols canonical; strings unquoted
	pos  int
}

// keywords are reserved words (docs/SQL.md §2.2). Aggregate function
// names are deliberately NOT keywords — the parser recognizes them
// positionally (identifier followed by '('), so a column may be named
// "count".
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "JOIN": true, "ON": true,
	"WHERE": true, "GROUP": true, "BY": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true,
	"INSERT": true, "INTO": true, "VALUES": true, "DELETE": true,
	"AND": true, "OR": true, "NOT": true,
}

// lex tokenizes the statement text. Keywords are case-insensitive and
// uppercased; identifiers keep their spelling (they must match catalog
// names exactly). Strings are single-quoted; a doubled quote is the escape.
func lex(src string) ([]token, *Error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			if up := strings.ToUpper(word); keywords[up] {
				toks = append(toks, token{tokKeyword, up, start})
			} else {
				toks = append(toks, token{tokIdent, word, start})
			}
		case c >= '0' && c <= '9':
			start := i
			for i < len(src) && src[i] >= '0' && src[i] <= '9' {
				i++
			}
			isFloat := false
			if i+1 < len(src) && src[i] == '.' && src[i+1] >= '0' && src[i+1] <= '9' {
				isFloat = true
				i++
				for i < len(src) && src[i] >= '0' && src[i] <= '9' {
					i++
				}
			}
			text := src[start:i]
			if isFloat {
				if _, err := strconv.ParseFloat(text, 64); err != nil {
					return nil, errf(ErrLex, start, "malformed float literal %q", text)
				}
				toks = append(toks, token{tokFloat, text, start})
			} else {
				// A literal's '-' is a token of its own; after one, the
				// magnitude may be 2^63 (math.MinInt64 fits int64).
				signed := text
				if n := len(toks); n > 0 && toks[n-1].kind == tokSymbol && toks[n-1].text == "-" {
					signed = "-" + text
				}
				if _, err := strconv.ParseInt(signed, 10, 64); err != nil {
					return nil, errf(ErrLex, start, "integer literal %q overflows int64", text)
				}
				toks = append(toks, token{tokInt, text, start})
			}
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			for {
				if i >= len(src) {
					return nil, errf(ErrLex, start, "unterminated string literal")
				}
				if src[i] == '\'' {
					if i+1 < len(src) && src[i+1] == '\'' { // '' escape
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(src[i])
				i++
			}
			toks = append(toks, token{tokString, b.String(), start})
		case c == '<':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokSymbol, "<=", i})
				i += 2
			} else if i+1 < len(src) && src[i+1] == '>' {
				toks = append(toks, token{tokSymbol, "!=", i}) // <> canonicalizes to !=
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, "<", i})
				i++
			}
		case c == '>':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokSymbol, ">=", i})
				i += 2
			} else {
				toks = append(toks, token{tokSymbol, ">", i})
				i++
			}
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokSymbol, "!=", i})
				i += 2
			} else {
				return nil, errf(ErrLex, i, "stray '!' (did you mean '!=' ?)")
			}
		case c == '=' || c == '(' || c == ')' || c == ',' || c == '.' || c == '*' || c == ';' || c == '-':
			toks = append(toks, token{tokSymbol, string(c), i})
			i++
		default:
			return nil, errf(ErrLex, i, "illegal character %q", string(c))
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
