package fortran

import (
	"strings"
)

// Lexer turns Fortran source text into a token stream. It first
// performs line assembly (comment stripping, continuation joining,
// label extraction) and then scans each logical statement.
type Lexer struct {
	stmts []logicalStmt
	errs  ErrorList
}

// logicalStmt is one statement after line assembly: its label (0 when
// absent), its starting source line, the statement text, and any
// parallel directive comment (c$par ...) from the lines above it.
type logicalStmt struct {
	label     int
	line      int
	text      string
	directive string
}

// Comment records a full-line comment with its original position so
// the editor can redisplay it.
type Comment struct {
	Line int
	Text string
}

// NewLexer assembles the source into logical statements and returns a
// lexer over them. Fixed-form and free-form layouts are both accepted;
// a line is treated as fixed-form when it matches the classic column
// conventions.
func NewLexer(src string) (*Lexer, []Comment) {
	lx := &Lexer{}
	var comments []Comment
	lines := strings.Split(src, "\n")
	var cur *logicalStmt
	var pendingDir string
	flush := func() {
		if cur != nil {
			if strings.TrimSpace(cur.text) != "" || cur.label != 0 {
				lx.stmts = append(lx.stmts, *cur)
			}
			cur = nil
		}
	}
	for i, raw := range lines {
		lineNo := i + 1
		line := strings.TrimRight(raw, " \t\r")
		if line == "" {
			continue
		}
		// Full-line comments: 'c', 'C', '*' or '!' in column 1.
		// Parallel directives (c$par ...) are not mere comments: they
		// carry loop annotations that must survive a print → parse
		// round trip (saved files, undo, journal snapshots), so they
		// attach to the following statement instead of the comment
		// list.
		switch line[0] {
		case 'c', 'C', '*', '!':
			if d, ok := parDirective(line); ok {
				pendingDir = d
				continue
			}
			comments = append(comments, Comment{Line: lineNo, Text: line})
			continue
		}
		// Free-form trailing comment.
		if idx := indexUnquoted(line, '!'); idx >= 0 {
			if c := strings.TrimSpace(line[idx:]); c != "" {
				comments = append(comments, Comment{Line: lineNo, Text: c})
			}
			line = strings.TrimRight(line[:idx], " \t")
			if line == "" {
				continue
			}
		}
		// Fixed-form continuation: non-space, non-zero in column 6
		// with columns 1-5 blank.
		if len(line) > 5 && line[5] != ' ' && line[5] != '0' &&
			strings.TrimSpace(line[:5]) == "" && cur != nil {
			cur.text += " " + strings.TrimSpace(line[6:])
			continue
		}
		// Free-form continuation: previous statement ended with '&'.
		if cur != nil && strings.HasSuffix(strings.TrimSpace(cur.text), "&") {
			cur.text = strings.TrimSuffix(strings.TrimSpace(cur.text), "&") +
				" " + strings.TrimSpace(line)
			continue
		}
		flush()
		// Extract a leading numeric label (fixed-form columns 1-5, or
		// any leading integer followed by a space in free form).
		label := 0
		body := strings.TrimSpace(line)
		j := 0
		for j < len(body) && body[j] >= '0' && body[j] <= '9' {
			label = label*10 + int(body[j]-'0')
			j++
		}
		if j > 0 && j < len(body) && (body[j] == ' ' || body[j] == '\t') {
			body = strings.TrimSpace(body[j:])
		} else {
			label = 0
		}
		cur = &logicalStmt{label: label, line: lineNo, text: body, directive: pendingDir}
		pendingDir = ""
	}
	flush()
	return lx, comments
}

// parDirective reports whether a full-line comment is a parallel
// directive (c$par / C$PAR / *$par / !$par in column 1) and returns
// the directive body after the sentinel.
func parDirective(line string) (string, bool) {
	rest := line[1:]
	if len(rest) < 4 || !strings.EqualFold(rest[:4], "$par") {
		return "", false
	}
	rest = rest[4:]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// Directives returns the parallel directive attached to each logical
// statement ("" for none), index-aligned with Statements().
func (lx *Lexer) Directives() []string {
	out := make([]string, len(lx.stmts))
	for i, st := range lx.stmts {
		out[i] = st.directive
	}
	return out
}

// indexUnquoted returns the index of the first occurrence of c outside
// single-quoted strings, or -1.
func indexUnquoted(s string, c byte) int {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			inStr = !inStr
		case s[i] == c && !inStr:
			return i
		}
	}
	return -1
}

// Statements tokenizes every logical statement into one backing array,
// sized from the statement texts at about one token per two bytes plus
// a label and the newline. Each statement gets a sub-slice capped at its
// end, so appending to one never writes over the next, and each ends
// with a TokNewline carrying the statement's line. Should the estimate
// fall short, the array grows and the statements scanned so far keep
// the first one.
func (lx *Lexer) Statements() ([][]Token, ErrorList) {
	size := 0
	for _, st := range lx.stmts {
		size += len(st.text)/2 + 2
	}
	buf := make([]Token, 0, size)
	out := make([][]Token, len(lx.stmts))
	for i, st := range lx.stmts {
		start := len(buf)
		buf = lx.scanStmt(buf, st)
		out[i] = buf[start:len(buf):len(buf)]
	}
	return out, lx.errs
}

// scanStmt appends the tokens of one logical statement to toks.
func (lx *Lexer) scanStmt(toks []Token, st logicalStmt) []Token {
	if st.label != 0 {
		toks = append(toks, Token{Kind: TokLabel, Text: itoa(st.label), Line: st.line, Col: 1})
	}
	s := st.text
	i := 0
	n := len(s)
	emit := func(k TokKind, text string, col int) {
		toks = append(toks, Token{Kind: k, Text: text, Line: st.line, Col: col + 1})
	}
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case isLetter(c) || c == '_':
			start := i
			for i < n && (isLetter(s[i]) || isDigit(s[i]) || s[i] == '_') {
				i++
			}
			emit(TokIdent, strings.ToLower(s[start:i]), start)
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(s[i+1])):
			tok, next := scanNumber(s, i)
			tok.Line, tok.Col = st.line, i+1
			toks = append(toks, tok)
			i = next
		case c == '.':
			// Dotted operator: .lt. .and. .true. etc.
			end := strings.IndexByte(s[i+1:], '.')
			if end < 0 {
				lx.errs.add(Pos{st.line, i + 1}, "unterminated dotted operator")
				i = n
				break
			}
			word := strings.ToLower(s[i+1 : i+1+end])
			kind, ok := dottedOps[word]
			if !ok {
				lx.errs.add(Pos{st.line, i + 1}, "unknown operator .%s.", word)
				kind = TokEqEq
			}
			emit(kind, "."+word+".", i)
			i += end + 2
		case c == '\'':
			start := i
			i++
			var b strings.Builder
			for i < n {
				if s[i] == '\'' {
					if i+1 < n && s[i+1] == '\'' { // escaped quote
						b.WriteByte('\'')
						i += 2
						continue
					}
					break
				}
				b.WriteByte(s[i])
				i++
			}
			if i >= n {
				lx.errs.add(Pos{st.line, start + 1}, "unterminated string literal")
			} else {
				i++ // closing quote
			}
			emit(TokString, b.String(), start)
		case c == '(':
			emit(TokLParen, "", i)
			i++
		case c == ')':
			emit(TokRParen, "", i)
			i++
		case c == ',':
			emit(TokComma, "", i)
			i++
		case c == '+':
			emit(TokPlus, "", i)
			i++
		case c == '-':
			emit(TokMinus, "", i)
			i++
		case c == '*':
			if i+1 < n && s[i+1] == '*' {
				emit(TokPower, "", i)
				i += 2
			} else {
				emit(TokStar, "", i)
				i++
			}
		case c == '/':
			switch {
			case i+1 < n && s[i+1] == '/':
				emit(TokConcat, "", i)
				i += 2
			case i+1 < n && s[i+1] == '=':
				emit(TokNe, "", i)
				i += 2
			default:
				emit(TokSlash, "", i)
				i++
			}
		case c == '=':
			if i+1 < n && s[i+1] == '=' {
				emit(TokEqEq, "", i)
				i += 2
			} else {
				emit(TokEq, "", i)
				i++
			}
		case c == '<':
			if i+1 < n && s[i+1] == '=' {
				emit(TokLe, "", i)
				i += 2
			} else {
				emit(TokLt, "", i)
				i++
			}
		case c == '>':
			if i+1 < n && s[i+1] == '=' {
				emit(TokGe, "", i)
				i += 2
			} else {
				emit(TokGt, "", i)
				i++
			}
		case c == ':':
			emit(TokColon, "", i)
			i++
		case c == '$':
			emit(TokDollar, "", i)
			i++
		default:
			lx.errs.add(Pos{st.line, i + 1}, "unexpected character %q", string(c))
			i++
		}
	}
	toks = append(toks, Token{Kind: TokNewline, Line: st.line, Col: len(s) + 1})
	return toks
}

var dottedOps = map[string]TokKind{
	"lt":    TokLt,
	"le":    TokLe,
	"gt":    TokGt,
	"ge":    TokGe,
	"eq":    TokEqEq,
	"ne":    TokNe,
	"and":   TokAnd,
	"or":    TokOr,
	"not":   TokNot,
	"true":  TokTrue,
	"false": TokFalse,
}

// scanNumber scans an integer or real literal starting at i and
// returns the token plus the index just past it. Handles 1, 1.5,
// .5 (caller guarantees a digit follows), 1e10, 1.5e-3, 2d0.
func scanNumber(s string, i int) (Token, int) {
	n := len(s)
	start := i
	isReal := false
	for i < n && isDigit(s[i]) {
		i++
	}
	if i < n && s[i] == '.' {
		// Don't consume '.' when it starts a dotted operator such as
		// "1.and." — require a digit, exponent or non-letter next.
		if i+1 >= n || !isLetter(s[i+1]) {
			isReal = true
			i++
			for i < n && isDigit(s[i]) {
				i++
			}
		} else if lower(s[i+1]) == 'e' || lower(s[i+1]) == 'd' {
			// "1.e5" — exponent directly after the point.
			isReal = true
			i++
		}
	}
	if i < n && (lower(s[i]) == 'e' || lower(s[i]) == 'd') {
		j := i + 1
		if j < n && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j < n && isDigit(s[j]) {
			isReal = true
			i = j
			for i < n && isDigit(s[i]) {
				i++
			}
		}
	}
	text := strings.ToLower(s[start:i])
	if isReal {
		return Token{Kind: TokReal, Text: text}, i
	}
	return Token{Kind: TokInt, Text: text}, i
}

func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func lower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
