package fortran

import (
	"strings"
)

// Lexer turns Fortran source text into tokens. NewLexer performs line
// assembly (comment stripping, continuation joining, label extraction);
// the parser then scans one logical statement at a time, in order, into
// a token buffer it reuses.
type Lexer struct {
	stmts   []logicalStmt
	errs    ErrorList
	scanned int // statements whose errors are in errs
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
	// A statement starts on a line of its own: the line count bounds
	// the statement count.
	lx := &Lexer{stmts: make([]logicalStmt, 0, strings.Count(src, "\n")+1)}
	var comments []Comment
	open := false // the last statement may still take continuation lines
	var pendingDir string
	flush := func() {
		if n := len(lx.stmts); open && strings.TrimSpace(lx.stmts[n-1].text) == "" && lx.stmts[n-1].label == 0 {
			lx.stmts = lx.stmts[:n-1]
		}
		open = false
	}
	for lineNo, rest, more := 1, src, true; more; lineNo++ {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
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
			strings.TrimSpace(line[:5]) == "" && open {
			cur := &lx.stmts[len(lx.stmts)-1]
			cur.text += " " + strings.TrimSpace(line[6:])
			continue
		}
		// Free-form continuation: previous statement ended with '&'.
		if open {
			cur := &lx.stmts[len(lx.stmts)-1]
			if t := strings.TrimSpace(cur.text); strings.HasSuffix(t, "&") {
				cur.text = strings.TrimSuffix(t, "&") + " " + strings.TrimSpace(line)
				continue
			}
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
		lx.stmts = append(lx.stmts, logicalStmt{label: label, line: lineNo, text: body, directive: pendingDir})
		open = true
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

// tokens scans statement i into toks[:0] and returns the tokens, which
// end with a TokNewline carrying the statement's line. Statements are
// scanned forward only, each once, and the ones passed over are scanned
// for their errors, so errors stay in statement order. When i is the
// last statement scanned, toks is returned as it is: it holds that
// statement still.
func (lx *Lexer) tokens(toks []Token, i int) []Token {
	for ; lx.scanned <= i; lx.scanned++ {
		toks = lx.scanStmt(toks[:0], lx.stmts[lx.scanned])
	}
	return toks
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
