package lang

import (
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse lexes and parses a complete P4All source file.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.parseProgram()
}

// ParseExpr parses a lone expression, such as the utility of an
// optimize declaration.
func ParseExpr(src string) (Expr, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.at(EOF) {
		return nil, errf(p.cur().Pos, "expected end of expression, found %s", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.advance(); return t }

func (p *Parser) advance() {
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
}

func (p *Parser) at(k Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if !p.at(k) {
		return Token{}, errf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) parseProgram() (*Program, error) {
	prog := &Program{}
	for !p.at(EOF) {
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		prog.Decls = append(prog.Decls, d)
	}
	return prog, nil
}

func (p *Parser) parseDecl() (Decl, error) {
	var annotations []string
	var stages []int
	for p.at(AT) {
		p.advance()
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if id.Text != "stage" || !p.at(LPAREN) {
			annotations = append(annotations, id.Text)
			continue
		}
		if stages, err = p.parseStages(); err != nil {
			return nil, err
		}
	}
	if len(annotations) > 0 && !p.at(KwAction) {
		return nil, errf(p.cur().Pos, "annotations may only precede action declarations")
	}
	if stages != nil && !p.at(KwAction) && !p.at(KwRegister) && !p.at(KwTable) {
		return nil, errf(p.cur().Pos, "@stage may only precede register, table, and action declarations")
	}
	switch p.cur().Kind {
	case KwSymbolic:
		return p.parseSymbolic()
	case KwAssume:
		return p.parseAssume()
	case KwOptimize:
		return p.parseOptimize()
	case KwConst:
		return p.parseConst()
	case KwStruct, KwHeader:
		return p.parseStruct()
	case KwRegister:
		return p.parseRegister(stages)
	case KwAction:
		return p.parseAction(annotations, stages)
	case KwControl:
		return p.parseControl()
	case KwTable:
		return p.parseTable(stages)
	default:
		return nil, errf(p.cur().Pos, "expected declaration, found %s", p.cur())
	}
}

// parseStages parses the argument list of @stage: "(n)" or "(n,m,…)".
func (p *Parser) parseStages() ([]int, error) {
	p.advance() // (
	stages := []int{}
	for {
		tok, err := p.expect(INT)
		if err != nil {
			return nil, err
		}
		n, ok := parseIntLit(tok.Text)
		if !ok {
			return nil, errf(tok.Pos, "invalid stage %q", tok.Text)
		}
		stages = append(stages, int(n))
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return stages, nil
}

func (p *Parser) parseSymbolic() (Decl, error) {
	pos := p.next().Pos // symbolic
	if _, err := p.expect(KwInt); err != nil {
		return nil, err
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &SymbolicDecl{Pos: pos, Name: id.Text}, nil
}

func (p *Parser) parseAssume() (Decl, error) {
	pos := p.next().Pos
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &AssumeDecl{Pos: pos, Cond: cond}, nil
}

func (p *Parser) parseOptimize() (Decl, error) {
	pos := p.next().Pos
	util, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &OptimizeDecl{Pos: pos, Util: util}, nil
}

func (p *Parser) parseConst() (Decl, error) {
	pos := p.next().Pos
	if _, err := p.parseType(); err != nil {
		return nil, err
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGN); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	return &ConstDecl{Pos: pos, Name: id.Text, Value: val}, nil
}

func (p *Parser) parseType() (TypeRef, error) {
	switch p.cur().Kind {
	case KwInt:
		p.advance()
		return TypeRef{Bits: 32, IsInt: true}, nil
	case KwBool:
		p.advance()
		return TypeRef{Bits: 1, IsBool: true}, nil
	case KwBit:
		p.advance()
		if _, err := p.expect(LT); err != nil {
			return TypeRef{}, err
		}
		w, err := p.expect(INT)
		if err != nil {
			return TypeRef{}, err
		}
		n, ok := parseIntLit(w.Text)
		if !ok || n <= 0 || n > 1024 {
			return TypeRef{}, errf(w.Pos, "invalid bit width %q", w.Text)
		}
		if _, err := p.expect(GT); err != nil {
			return TypeRef{}, err
		}
		return TypeRef{Bits: int(n)}, nil
	default:
		return TypeRef{}, errf(p.cur().Pos, "expected type, found %s", p.cur())
	}
}

func (p *Parser) parseStruct() (Decl, error) {
	kw := p.next()
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	d := &StructDecl{Pos: kw.Pos, IsHeader: kw.Kind == KwHeader, Name: id.Text}
	for !p.at(RBRACE) {
		fpos := p.cur().Pos
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		var count Expr
		if p.at(LBRACKET) {
			if count, err = p.parseExtent(); err != nil {
				return nil, err
			}
		}
		name, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		d.Fields = append(d.Fields, Field{Pos: fpos, Type: typ, Count: count, Name: name.Text})
	}
	p.advance() // }
	return d, nil
}

func (p *Parser) parseRegister(stages []int) (Decl, error) {
	pos := p.next().Pos // register
	if _, err := p.expect(LT); err != nil {
		return nil, err
	}
	elem, err := p.parseType()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(GT); err != nil {
		return nil, err
	}
	d := &RegisterDecl{Pos: pos, Stages: stages, Elem: elem}
	if p.accept(LPAREN) {
		// P4_16's register<bit<W>>(N): one array of N cells.
		if d.Cells, err = p.parseExpr(); err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	} else if d.Cells, err = p.parseExtent(); err != nil {
		return nil, err
	} else if p.at(LBRACKET) {
		if d.Count, err = p.parseExtent(); err != nil {
			return nil, err
		}
	}
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}
	d.Name = id.Text
	return d, nil
}

// parseExtent parses a bracketed extent "[expr]".
func (p *Parser) parseExtent() (Expr, error) {
	if _, err := p.expect(LBRACKET); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RBRACKET); err != nil {
		return nil, err
	}
	return e, nil
}

func (p *Parser) parseParams() ([]Param, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var params []Param
	for !p.at(RPAREN) {
		ppos := p.cur().Pos
		typ, err := p.parseType()
		if err != nil {
			return nil, err
		}
		id, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		params = append(params, Param{Pos: ppos, Type: typ, Name: id.Text})
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return params, nil
}

func (p *Parser) parseAction(annotations []string, stages []int) (Decl, error) {
	pos := p.next().Pos // action
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	params, err := p.parseParams()
	if err != nil {
		return nil, err
	}
	index := ""
	if p.accept(LBRACKET) {
		if _, err := p.expect(KwInt); err != nil {
			return nil, err
		}
		iv, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RBRACKET); err != nil {
			return nil, err
		}
		index = iv.Text
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ActionDecl{Pos: pos, Annotations: annotations, Stages: stages, Name: id.Text, Params: params, IndexParam: index, Body: body}, nil
}

func (p *Parser) parseControl() (Decl, error) {
	pos := p.next().Pos // control
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	var params []Param
	if p.at(LPAREN) {
		params, err = p.parseParams()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	d := &ControlDecl{Pos: pos, Name: id.Text, Params: params}
	for !p.at(RBRACE) {
		switch p.cur().Kind {
		case KwApply:
			apos := p.next().Pos
			blk, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			blk.Pos = apos
			if d.Apply != nil {
				return nil, errf(apos, "control %s has multiple apply blocks", d.Name)
			}
			d.Apply = blk
		case KwAction, AT, KwTable:
			local, err := p.parseDecl()
			if err != nil {
				return nil, err
			}
			d.Locals = append(d.Locals, local)
		default:
			return nil, errf(p.cur().Pos, "expected action, table, or apply in control %s, found %s", d.Name, p.cur())
		}
	}
	p.advance() // }
	if d.Apply == nil {
		return nil, errf(pos, "control %s has no apply block", d.Name)
	}
	return d, nil
}

func (p *Parser) parseTable(stages []int) (Decl, error) {
	pos := p.next().Pos // table
	id, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LBRACE); err != nil {
		return nil, err
	}
	d := &TableDecl{Pos: pos, Stages: stages, Name: id.Text}
	for !p.at(RBRACE) {
		prop, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ASSIGN); err != nil {
			return nil, err
		}
		switch prop.Text {
		case "key":
			if _, err := p.expect(LBRACE); err != nil {
				return nil, err
			}
			for !p.at(RBRACE) {
				k, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				// Optional match-kind annotation ": exact" etc.
				// (Lexed as ':'? We do not lex ':', so match kinds are
				// omitted in this subset.)
				d.Keys = append(d.Keys, k)
				if _, err := p.expect(SEMI); err != nil {
					return nil, err
				}
			}
			p.advance()
		case "actions":
			if _, err := p.expect(LBRACE); err != nil {
				return nil, err
			}
			for !p.at(RBRACE) {
				a, err := p.expect(IDENT)
				if err != nil {
					return nil, err
				}
				d.Actions = append(d.Actions, a.Text)
				if _, err := p.expect(SEMI); err != nil {
					return nil, err
				}
			}
			p.advance()
		case "size":
			sz, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Size = sz
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
		default:
			return nil, errf(prop.Pos, "unknown table property %q (want key, actions, or size)", prop.Text)
		}
	}
	p.advance() // }
	return d, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	lb, err := p.expect(LBRACE)
	if err != nil {
		return nil, err
	}
	blk := &Block{Pos: lb.Pos}
	for !p.at(RBRACE) {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.advance() // }
	return blk, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case LBRACE:
		return p.parseBlock()
	case KwIf:
		return p.parseIf()
	case KwFor:
		return p.parseFor()
	case IDENT:
		return p.parseSimpleStmt()
	default:
		return nil, errf(p.cur().Pos, "expected statement, found %s", p.cur())
	}
}

func (p *Parser) parseIf() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Pos: pos, Cond: cond, Then: then}
	if p.accept(KwElse) {
		if p.at(KwIf) {
			inner, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			st.Else = &Block{Pos: inner.GetPos(), Stmts: []Stmt{inner}}
		} else {
			st.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	pos := p.next().Pos
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	iv, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(LT); err != nil {
		return nil, err
	}
	bound, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Pos: pos, Var: iv.Text, Bound: bound, Body: body}, nil
}

// parseSimpleStmt handles assignments, action calls, and apply calls,
// which all begin with a reference path.
func (p *Parser) parseSimpleStmt() (Stmt, error) {
	ref, err := p.parseRef()
	if err != nil {
		return nil, err
	}
	pos := ref.Pos
	switch {
	case p.at(LPAREN):
		// Call: either "name(...)" (action) or "path.apply(...)".
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		last := ref.Segs[len(ref.Segs)-1]
		if last.Name == "apply" && len(ref.Segs) > 1 {
			if len(last.Indexes) > 0 {
				return nil, errf(pos, "apply cannot be indexed")
			}
			target := make([]string, 0, len(ref.Segs)-1)
			for _, s := range ref.Segs[:len(ref.Segs)-1] {
				if len(s.Indexes) > 0 {
					return nil, errf(pos, "apply target cannot be indexed")
				}
				target = append(target, s.Name)
			}
			if _, err := p.expect(SEMI); err != nil {
				return nil, err
			}
			return &ApplyStmt{Pos: pos, Target: strings.Join(target, "."), Args: args}, nil
		}
		if len(ref.Segs) != 1 || len(last.Indexes) > 0 {
			return nil, errf(pos, "invalid call target %s", refText(ref))
		}
		call := &CallStmt{Pos: pos, Name: last.Name, Args: args}
		if p.accept(LBRACKET) {
			call.Index, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return call, nil
	case p.at(ASSIGN):
		p.advance()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return &AssignStmt{Pos: pos, LHS: ref, RHS: rhs}, nil
	default:
		return nil, errf(p.cur().Pos, "expected '=', '(', or apply after %s, found %s", refText(ref), p.cur())
	}
}

func (p *Parser) parseArgs() ([]Expr, error) {
	if _, err := p.expect(LPAREN); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.at(RPAREN) {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.accept(COMMA) {
			break
		}
	}
	if _, err := p.expect(RPAREN); err != nil {
		return nil, err
	}
	return args, nil
}

func (p *Parser) parseRef() (*Ref, error) {
	first, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	ref := &Ref{Pos: first.Pos}
	seg := Seg{Name: first.Text}
	for {
		for p.at(LBRACKET) {
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACKET); err != nil {
				return nil, err
			}
			seg.Indexes = append(seg.Indexes, idx)
		}
		ref.Segs = append(ref.Segs, seg)
		if !p.accept(DOT) {
			return ref, nil
		}
		var name Token
		// "apply" is a keyword but valid as a path tail.
		if p.at(KwApply) {
			name = p.next()
			name.Text = "apply"
		} else if name, err = p.expect(IDENT); err != nil {
			return nil, err
		}
		seg = Seg{Name: name.Text}
	}
}

// Expression parsing with standard precedence climbing.

func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	x, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.at(OR) {
		pos := p.next().Pos
		y, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: pos, Op: OR, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	x, err := p.parseEquality()
	if err != nil {
		return nil, err
	}
	for p.at(AND) {
		pos := p.next().Pos
		y, err := p.parseEquality()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: pos, Op: AND, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseEquality() (Expr, error) {
	x, err := p.parseRelational()
	if err != nil {
		return nil, err
	}
	for p.at(EQ) || p.at(NE) {
		op := p.next()
		y, err := p.parseRelational()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseRelational() (Expr, error) {
	x, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	for p.at(LT) || p.at(LE) || p.at(GT) || p.at(GE) {
		op := p.next()
		y, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	x, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.at(PLUS) || p.at(MINUS) {
		op := p.next()
		y, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.at(STAR) || p.at(SLASH) || p.at(PCT) {
		op := p.next()
		y, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
	return x, nil
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.at(MINUS) || p.at(NOT) {
		op := p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Pos: op.Pos, Op: op.Kind, X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case INT:
		tok := p.next()
		v, ok := parseIntLit(tok.Text)
		if !ok {
			return nil, errf(tok.Pos, "invalid integer literal %q", tok.Text)
		}
		return &IntLit{Pos: tok.Pos, Value: v}, nil
	case FLOAT:
		tok := p.next()
		v, err := strconv.ParseFloat(tok.Text, 64)
		if err != nil {
			return nil, errf(tok.Pos, "invalid decimal literal %q", tok.Text)
		}
		return &FloatLit{Pos: tok.Pos, Value: v}, nil
	case KwTrue:
		tok := p.next()
		return &BoolLit{Pos: tok.Pos, Value: true}, nil
	case KwFalse:
		tok := p.next()
		return &BoolLit{Pos: tok.Pos, Value: false}, nil
	case LPAREN:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil
	case IDENT:
		// Builtin call or reference path.
		if p.toks[p.pos+1].Kind == LPAREN {
			name := p.next()
			args, err := p.parseArgs()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Pos: name.Pos, Name: name.Text, Args: args}, nil
		}
		return p.parseRef()
	default:
		return nil, errf(p.cur().Pos, "expected expression, found %s", p.cur())
	}
}

func refText(r *Ref) string {
	var b strings.Builder
	for i, s := range r.Segs {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(s.Name)
		for range s.Indexes {
			b.WriteString("[...]")
		}
	}
	return b.String()
}
