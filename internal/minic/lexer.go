// Package minic implements the MiniC language: a small, Go-flavored
// systems language compiled to the VSA ISAs through the package ir
// intermediate representation. The ten reproduction workloads are MiniC
// programs; the same source compiles for both VSA32 and VSA64, mirroring
// the paper's "same source workloads on two ISAs" setup.
package minic

import (
	"fmt"
	"strings"
)

// TokKind enumerates token kinds.
type TokKind int

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokChar
	// Keywords.
	TokVar
	TokConst
	TokFunc
	TokIf
	TokElse
	TokWhile
	TokFor
	TokReturn
	TokBreak
	TokContinue
	TokInt
	TokByte
	// Punctuation and operators.
	TokLParen
	TokRParen
	TokLBrace
	TokRBrace
	TokLBrack
	TokRBrack
	TokComma
	TokSemi
	TokAssign
	TokPlus
	TokMinus
	TokStar
	TokSlash
	TokPercent
	TokAmp
	TokPipe
	TokCaret
	TokTilde
	TokBang
	TokShl
	TokShr
	TokShrU
	TokEq
	TokNe
	TokLt
	TokLe
	TokGt
	TokGe
	TokAndAnd
	TokOrOr
)

var kindNames = map[TokKind]string{
	TokEOF: "EOF", TokIdent: "identifier", TokNumber: "number",
	TokString: "string", TokChar: "char literal",
	TokVar: "var", TokConst: "const", TokFunc: "func", TokIf: "if",
	TokElse: "else", TokWhile: "while", TokFor: "for", TokReturn: "return",
	TokBreak: "break", TokContinue: "continue", TokInt: "int", TokByte: "byte",
	TokLParen: "(", TokRParen: ")", TokLBrace: "{", TokRBrace: "}",
	TokLBrack: "[", TokRBrack: "]", TokComma: ",", TokSemi: ";",
	TokAssign: "=", TokPlus: "+", TokMinus: "-", TokStar: "*",
	TokSlash: "/", TokPercent: "%", TokAmp: "&", TokPipe: "|",
	TokCaret: "^", TokTilde: "~", TokBang: "!", TokShl: "<<", TokShr: ">>",
	TokShrU: ">>>",
	TokEq:   "==", TokNe: "!=", TokLt: "<", TokLe: "<=", TokGt: ">",
	TokGe: ">=", TokAndAnd: "&&", TokOrOr: "||",
}

func (k TokKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("tok(%d)", int(k))
}

var keywords = map[string]TokKind{
	"var": TokVar, "const": TokConst, "func": TokFunc, "if": TokIf,
	"else": TokElse, "while": TokWhile, "for": TokFor, "return": TokReturn,
	"break": TokBreak, "continue": TokContinue, "int": TokInt, "byte": TokByte,
}

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Num  int64 // numbers and char literals
	Str  []byte
	Line int
}

// Lexer tokenizes MiniC source. Like Go, MiniC has automatic semicolon
// insertion: a newline terminates a statement when the previous token
// could end one.
type Lexer struct {
	src  string
	pos  int
	line int
	err  error
	last TokKind
}

// NewLexer creates a lexer for src.
func NewLexer(src string) *Lexer { return &Lexer{src: src, line: 1, last: TokEOF} }

// needSemi reports whether a newline after token kind k inserts a
// semicolon (Go's rule, adapted).
func needSemi(k TokKind) bool {
	switch k {
	case TokIdent, TokNumber, TokString, TokChar,
		TokRParen, TokRBrack, TokRBrace,
		TokBreak, TokContinue, TokReturn, TokInt, TokByte:
		return true
	}
	return false
}

func (lx *Lexer) errorf(format string, args ...any) Token {
	if lx.err == nil {
		lx.err = fmt.Errorf("line %d: %s", lx.line, fmt.Sprintf(format, args...))
	}
	return Token{Kind: TokEOF, Line: lx.line}
}

// Err returns the first lexical error.
func (lx *Lexer) Err() error { return lx.err }

func (lx *Lexer) peekByte() byte {
	if lx.pos < len(lx.src) {
		return lx.src[lx.pos]
	}
	return 0
}

func (lx *Lexer) at(i int) byte {
	if lx.pos+i < len(lx.src) {
		return lx.src[lx.pos+i]
	}
	return 0
}

// Next returns the next token, inserting semicolons at newlines per
// needSemi.
func (lx *Lexer) Next() Token {
	t := lx.next0()
	lx.last = t.Kind
	return t
}

func (lx *Lexer) next0() Token {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			line := lx.line
			lx.line++
			lx.pos++
			if needSemi(lx.last) {
				return Token{Kind: TokSemi, Line: line}
			}
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.at(1) == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.at(1) == '*':
			lx.pos += 2
			for lx.pos < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.at(1) == '/') {
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				lx.pos++
			}
			if lx.pos >= len(lx.src) {
				return lx.errorf("unterminated block comment")
			}
			lx.pos += 2
		default:
			return lx.scan()
		}
	}
	return Token{Kind: TokEOF, Line: lx.line}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (lx *Lexer) scan() Token {
	line := lx.line
	c := lx.src[lx.pos]

	if isIdentStart(c) {
		start := lx.pos
		for lx.pos < len(lx.src) && (isIdentStart(lx.src[lx.pos]) || isDigit(lx.src[lx.pos])) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		if k, ok := keywords[text]; ok {
			return Token{Kind: k, Text: text, Line: line}
		}
		return Token{Kind: TokIdent, Text: text, Line: line}
	}

	if isDigit(c) {
		start := lx.pos
		base := int64(10)
		if c == '0' && (lx.at(1) == 'x' || lx.at(1) == 'X') {
			base = 16
			lx.pos += 2
		}
		var v int64
		digits := 0
		for lx.pos < len(lx.src) {
			d := lx.src[lx.pos]
			var dv int64
			switch {
			case isDigit(d):
				dv = int64(d - '0')
			case base == 16 && d >= 'a' && d <= 'f':
				dv = int64(d-'a') + 10
			case base == 16 && d >= 'A' && d <= 'F':
				dv = int64(d-'A') + 10
			default:
				goto done
			}
			if dv >= base {
				return lx.errorf("bad digit %q", d)
			}
			v = v*base + dv
			digits++
			lx.pos++
		}
	done:
		if digits == 0 && base == 16 {
			return lx.errorf("malformed hex literal")
		}
		_ = start
		return Token{Kind: TokNumber, Num: v, Line: line}
	}

	if c == '"' {
		lx.pos++
		var sb []byte
		for {
			if lx.pos >= len(lx.src) {
				return lx.errorf("unterminated string")
			}
			ch := lx.src[lx.pos]
			if ch == '"' {
				lx.pos++
				return Token{Kind: TokString, Str: sb, Line: line}
			}
			if ch == '\\' {
				lx.pos++
				e, ok := lx.escape()
				if !ok {
					return lx.errorf("bad escape in string")
				}
				sb = append(sb, e)
				continue
			}
			if ch == '\n' {
				return lx.errorf("newline in string")
			}
			sb = append(sb, ch)
			lx.pos++
		}
	}

	if c == '\'' {
		lx.pos++
		if lx.pos >= len(lx.src) {
			return lx.errorf("unterminated char literal")
		}
		var v byte
		if lx.src[lx.pos] == '\\' {
			lx.pos++
			e, ok := lx.escape()
			if !ok {
				return lx.errorf("bad escape in char literal")
			}
			v = e
		} else {
			v = lx.src[lx.pos]
			lx.pos++
		}
		if lx.peekByte() != '\'' {
			return lx.errorf("unterminated char literal")
		}
		lx.pos++
		return Token{Kind: TokChar, Num: int64(v), Line: line}
	}

	two := func(k TokKind) Token { lx.pos += 2; return Token{Kind: k, Line: line} }
	one := func(k TokKind) Token { lx.pos++; return Token{Kind: k, Line: line} }

	switch {
	case c == '<' && lx.at(1) == '<':
		return two(TokShl)
	case c == '>' && lx.at(1) == '>' && lx.at(2) == '>':
		lx.pos += 3
		return Token{Kind: TokShrU, Line: line}
	case c == '>' && lx.at(1) == '>':
		return two(TokShr)
	case c == '=' && lx.at(1) == '=':
		return two(TokEq)
	case c == '!' && lx.at(1) == '=':
		return two(TokNe)
	case c == '<' && lx.at(1) == '=':
		return two(TokLe)
	case c == '>' && lx.at(1) == '=':
		return two(TokGe)
	case c == '&' && lx.at(1) == '&':
		return two(TokAndAnd)
	case c == '|' && lx.at(1) == '|':
		return two(TokOrOr)
	}

	switch c {
	case '(':
		return one(TokLParen)
	case ')':
		return one(TokRParen)
	case '{':
		return one(TokLBrace)
	case '}':
		return one(TokRBrace)
	case '[':
		return one(TokLBrack)
	case ']':
		return one(TokRBrack)
	case ',':
		return one(TokComma)
	case ';':
		return one(TokSemi)
	case '=':
		return one(TokAssign)
	case '+':
		return one(TokPlus)
	case '-':
		return one(TokMinus)
	case '*':
		return one(TokStar)
	case '/':
		return one(TokSlash)
	case '%':
		return one(TokPercent)
	case '&':
		return one(TokAmp)
	case '|':
		return one(TokPipe)
	case '^':
		return one(TokCaret)
	case '~':
		return one(TokTilde)
	case '!':
		return one(TokBang)
	case '<':
		return one(TokLt)
	case '>':
		return one(TokGt)
	}
	return lx.errorf("unexpected character %q", c)
}

func (lx *Lexer) escape() (byte, bool) {
	if lx.pos >= len(lx.src) {
		return 0, false
	}
	c := lx.src[lx.pos]
	lx.pos++
	switch c {
	case 'n':
		return '\n', true
	case 't':
		return '\t', true
	case 'r':
		return '\r', true
	case '0':
		return 0, true
	case '\\':
		return '\\', true
	case '\'':
		return '\'', true
	case '"':
		return '"', true
	case 'x':
		if lx.pos+1 >= len(lx.src) {
			return 0, false
		}
		hv := func(d byte) (byte, bool) {
			switch {
			case d >= '0' && d <= '9':
				return d - '0', true
			case d >= 'a' && d <= 'f':
				return d - 'a' + 10, true
			case d >= 'A' && d <= 'F':
				return d - 'A' + 10, true
			}
			return 0, false
		}
		h, ok1 := hv(lx.src[lx.pos])
		l, ok2 := hv(lx.src[lx.pos+1])
		if !ok1 || !ok2 {
			return 0, false
		}
		lx.pos += 2
		return h<<4 | l, true
	}
	return 0, false
}

// LexAll tokenizes the whole input (testing convenience).
func LexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	var toks []Token
	for {
		t := lx.Next()
		if lx.Err() != nil {
			return nil, lx.Err()
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// FormatTokens renders tokens for debugging.
func FormatTokens(toks []Token) string {
	var sb strings.Builder
	for _, t := range toks {
		switch t.Kind {
		case TokIdent:
			fmt.Fprintf(&sb, "%s ", t.Text)
		case TokNumber, TokChar:
			fmt.Fprintf(&sb, "%d ", t.Num)
		case TokString:
			fmt.Fprintf(&sb, "%q ", t.Str)
		default:
			fmt.Fprintf(&sb, "%v ", t.Kind)
		}
	}
	return strings.TrimSpace(sb.String())
}
