// Package ast defines the abstract syntax tree for the SELF-like
// source language.
//
// A source file is a sequence of slot definitions installed into the
// lobby (the global namespace object). Methods are code-bearing slots;
// a method body is a list of expressions with optional local slot
// declarations. Blocks are closure literals. Message sends come in
// unary, binary and keyword flavours; primitive calls are keyword sends
// whose selector begins with an underscore.
package ast

import (
	"fmt"
	"strings"

	"selfgo/internal/token"
)

// Expr is any expression node.
type Expr interface {
	Pos() token.Pos
	String() string
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	P     token.Pos
	Value int64
}

// StrLit is a string literal.
type StrLit struct {
	P     token.Pos
	Value string
}

// Ident is a bare identifier: a reference to a local, an argument, or a
// unary message implicitly sent to self ("self" itself parses to Ident).
type Ident struct {
	P    token.Pos
	Name string
}

// UnaryMsg is "recv sel".
type UnaryMsg struct {
	P    token.Pos
	Recv Expr // never nil; implicit-self sends parse as Ident
	Sel  string
}

// BinMsg is "recv op arg".
type BinMsg struct {
	P    token.Pos
	Recv Expr
	Op   string
	Arg  Expr
}

// KeywordMsg is "recv k1: a1 K2: a2 ...". Recv == nil means the message
// is sent to the implicit receiver (self / enclosing scope); this form
// also expresses assignment, "x: expr", which the compiler resolves
// against the lexical scope before falling back to a real send.
type KeywordMsg struct {
	P    token.Pos
	Recv Expr // nil for implicit-receiver sends
	Sel  string
	Args []Expr
}

// PrimCall invokes a primitive operation, e.g. "a _IntAdd: b IfFail: [...]".
// Unary primitives have no Args. The final argument is a failure block
// when the selector ends in "IfFail:".
type PrimCall struct {
	P    token.Pos
	Recv Expr
	Sel  string
	Args []Expr
}

// Block is a closure literal "[ :a :b | |locals| exprs ]".
type Block struct {
	P      token.Pos
	Params []string
	Locals []*Local
	Body   []Expr
}

// Return is "^ expr": a return from the lexically enclosing method
// (non-local when it appears inside a block).
type Return struct {
	P token.Pos
	E Expr
}

// ObjectLit is "(| slots |)", a fresh prototype object.
type ObjectLit struct {
	P     token.Pos
	Slots []*Slot
}

func (e *IntLit) Pos() token.Pos     { return e.P }
func (e *StrLit) Pos() token.Pos     { return e.P }
func (e *Ident) Pos() token.Pos      { return e.P }
func (e *UnaryMsg) Pos() token.Pos   { return e.P }
func (e *BinMsg) Pos() token.Pos     { return e.P }
func (e *KeywordMsg) Pos() token.Pos { return e.P }
func (e *PrimCall) Pos() token.Pos   { return e.P }
func (e *Block) Pos() token.Pos      { return e.P }
func (e *Return) Pos() token.Pos     { return e.P }
func (e *ObjectLit) Pos() token.Pos  { return e.P }

func (*IntLit) exprNode()     {}
func (*StrLit) exprNode()     {}
func (*Ident) exprNode()      {}
func (*UnaryMsg) exprNode()   {}
func (*BinMsg) exprNode()     {}
func (*KeywordMsg) exprNode() {}
func (*PrimCall) exprNode()   {}
func (*Block) exprNode()      {}
func (*Return) exprNode()     {}
func (*ObjectLit) exprNode()  {}

// Local is a local slot declaration inside a method or block:
// "name" (initialized to nil) or "name <- expr".
type Local struct {
	P    token.Pos
	Name string
	Init Expr // nil means nil-initialized
}

// SlotKind classifies object slots.
type SlotKind int

// Slot kinds.
const (
	ConstSlot  SlotKind = iota // name = value
	DataSlot                   // name <- value (an assignable slot plus its assignment slot "name:")
	ParentSlot                 // name* = value (constant parent)
	MethodSlot                 // selector pattern = ( body )
)

func (k SlotKind) String() string {
	switch k {
	case ConstSlot:
		return "const"
	case DataSlot:
		return "data"
	case ParentSlot:
		return "parent"
	case MethodSlot:
		return "method"
	}
	return fmt.Sprintf("SlotKind(%d)", int(k))
}

// Slot is one slot in an object literal (or at the top level of a file).
type Slot struct {
	P      token.Pos
	Kind   SlotKind
	Name   string  // slot name or full selector ("at:Put:", "+", "size")
	Init   Expr    // for const/data/parent slots
	Method *Method // for method slots
}

// Method is the code object stored in a method slot.
type Method struct {
	P      token.Pos
	Sel    string // selector, e.g. "at:Put:", "+", "double"
	Params []string
	Locals []*Local
	Body   []Expr
}

// File is a parsed source file: slots to install in the lobby.
type File struct {
	Slots []*Slot
}

// --- Printing (used by tests and cmd/selfc -dump-ast) ---

// strEscaper renders a string literal's value so the lexer reads the
// same value back.
var strEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

func (e *IntLit) String() string { return fmt.Sprintf("%d", e.Value) }
func (e *StrLit) String() string { return "'" + strEscaper.Replace(e.Value) + "'" }
func (e *Ident) String() string  { return e.Name }

func (e *UnaryMsg) String() string {
	return fmt.Sprintf("(%s %s)", e.Recv, e.Sel)
}

func (e *BinMsg) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Recv, e.Op, e.Arg)
}

func (e *KeywordMsg) String() string {
	recv := "<implicit>"
	if e.Recv != nil {
		recv = e.Recv.String()
	}
	return fmt.Sprintf("(%s %s)", recv, joinSel(e.Sel, e.Args))
}

func (e *PrimCall) String() string {
	if len(e.Args) == 0 {
		return fmt.Sprintf("(%s %s)", e.Recv, e.Sel)
	}
	return fmt.Sprintf("(%s %s)", e.Recv, joinSel(e.Sel, e.Args))
}

func joinSel(sel string, args []Expr) string {
	parts := SplitSelector(sel)
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(p)
		b.WriteByte(' ')
		if i < len(args) {
			b.WriteString(args[i].String())
		}
	}
	return b.String()
}

func (e *Block) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for _, p := range e.Params {
		fmt.Fprintf(&b, ":%s ", p)
	}
	if len(e.Params) > 0 {
		b.WriteString("| ")
	}
	writeBodyString(&b, e.Locals, e.Body)
	b.WriteByte(']')
	return b.String()
}

func (e *Return) String() string { return "^" + e.E.String() }

func (e *ObjectLit) String() string {
	var b strings.Builder
	b.WriteString("(| ")
	for _, s := range e.Slots {
		b.WriteString(s.String())
		b.WriteString(". ")
	}
	b.WriteString("|)")
	return b.String()
}

func (s *Slot) String() string {
	switch s.Kind {
	case ConstSlot:
		return fmt.Sprintf("%s = %s", s.Name, s.Init)
	case DataSlot:
		return fmt.Sprintf("%s <- %s", s.Name, s.Init)
	case ParentSlot:
		return fmt.Sprintf("%s* = %s", s.Name, s.Init)
	case MethodSlot:
		return fmt.Sprintf("%s = %s", s.Name, s.Method)
	}
	return "<bad slot>"
}

func (m *Method) String() string {
	var b strings.Builder
	b.WriteString("( ")
	writeBodyString(&b, m.Locals, m.Body)
	b.WriteString(")")
	return b.String()
}

func writeBodyString(b *strings.Builder, locals []*Local, body []Expr) {
	if len(locals) > 0 {
		b.WriteString("| ")
		for _, l := range locals {
			if l.Init != nil {
				fmt.Fprintf(b, "%s <- %s. ", l.Name, l.Init)
			} else {
				fmt.Fprintf(b, "%s. ", l.Name)
			}
		}
		b.WriteString("| ")
	}
	for _, e := range body {
		b.WriteString(e.String())
		b.WriteString(". ")
	}
}

// SplitSelector splits a keyword selector into its colon-terminated
// parts: "at:Put:" -> ["at:", "Put:"]. Unary and binary selectors are
// returned whole.
func SplitSelector(sel string) []string {
	if !strings.HasSuffix(sel, ":") {
		return []string{sel}
	}
	var parts []string
	start := 0
	for i := 0; i < len(sel); i++ {
		if sel[i] == ':' {
			parts = append(parts, sel[start:i+1])
			start = i + 1
		}
	}
	return parts
}

// NumArgs returns the number of arguments a selector takes: 0 for unary,
// 1 for binary, and the number of colons for keyword selectors.
func NumArgs(sel string) int {
	if n := strings.Count(sel, ":"); n > 0 {
		return n
	}
	if sel != "" && !isIdentStart(sel[0]) && sel[0] != '_' {
		return 1 // binary operator
	}
	return 0
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// Walk calls fn for e and every expression reachable from it
// (pre-order). Walking descends into blocks and object-literal slot
// initializers, including method bodies.
func Walk(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch n := e.(type) {
	case *UnaryMsg:
		Walk(n.Recv, fn)
	case *BinMsg:
		Walk(n.Recv, fn)
		Walk(n.Arg, fn)
	case *KeywordMsg:
		Walk(n.Recv, fn)
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *PrimCall:
		Walk(n.Recv, fn)
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *Block:
		for _, l := range n.Locals {
			Walk(l.Init, fn)
		}
		for _, s := range n.Body {
			Walk(s, fn)
		}
	case *Return:
		Walk(n.E, fn)
	case *ObjectLit:
		for _, s := range n.Slots {
			Walk(s.Init, fn)
			if s.Method != nil {
				for _, l := range s.Method.Locals {
					Walk(l.Init, fn)
				}
				for _, x := range s.Method.Body {
					Walk(x, fn)
				}
			}
		}
	}
}
