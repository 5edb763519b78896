//! Recursive-descent parser: token stream → [`Program`].
//!
//! Tokens are moved out of the stream as they are consumed, never cloned.
//! Expressions are built by value and moved into the program's arena once
//! their parent takes them; the statements of open blocks and the
//! arguments of open calls wait on stacks until the block or call closes,
//! then move into the arena as one run.

use std::borrow::Cow;

use crate::ast::{BinOp, Expr, ExprId, Program, Slot, Span, Stmt, Target};
use crate::lexer::{lex, LexError, Tok};

/// A parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description with a token position.
    pub message: String,
}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: format!("lex error at byte {}: {}", e.offset, e.message),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses source text into a program that borrows from it.
pub fn parse_program(src: &str) -> Result<Program<'_>, ParseError> {
    let toks = lex(src)?;
    // Every expression consumes a token, and a statement usually four.
    let stmts = toks.len() / 4 + 1;
    let mut p = Parser {
        src,
        pos: 0,
        exprs: Vec::with_capacity(toks.len()),
        stmts: Vec::with_capacity(stmts),
        open_stmts: Vec::with_capacity(stmts),
        open_args: Vec::new(),
        names: Vec::new(),
        toks,
    };
    while !p.at_end() {
        let stmt = p.stmt()?;
        p.open_stmts.push(stmt);
    }
    let body = p.close_block(0);
    Ok(Program {
        exprs: p.exprs,
        stmts: p.stmts,
        body,
        names: p.names,
    })
}

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Tok<'a>>,
    pos: usize,
    exprs: Vec<Expr<'a>>,
    stmts: Vec<Stmt>,
    /// Statements of the blocks being parsed, innermost block last.
    open_stmts: Vec<Stmt>,
    /// Arguments of the calls being parsed, innermost call last.
    open_args: Vec<Expr<'a>>,
    names: Vec<&'a str>,
}

impl<'a> Parser<'a> {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos)
    }

    /// Moves the current token out of the stream; the parser never looks
    /// back at a consumed token.
    fn next(&mut self) -> Result<Tok<'a>, ParseError> {
        if self.at_end() {
            return Err(self.err("unexpected end of input"));
        }
        let t = std::mem::replace(&mut self.toks[self.pos], Tok::Semi);
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &Tok<'_>) -> Result<(), ParseError> {
        let t = self.next()?;
        if &t == tok {
            Ok(())
        } else {
            Err(self.err(&format!("expected {tok}, found {t}")))
        }
    }

    fn eat(&mut self, tok: &Tok<'_>) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            message: format!("{msg} (token {})", self.pos),
        }
    }

    /// Moves `e` into the arena.
    fn push(&mut self, e: Expr<'a>) -> ExprId {
        let id = ExprId::try_from(self.exprs.len()).expect("expression arena overflow");
        self.exprs.push(e);
        id
    }

    /// The slot of variable `name`, numbered on first sight.
    fn slot(&mut self, name: &'a str) -> Slot {
        let idx = match self.names.iter().position(|n| *n == name) {
            Some(idx) => idx,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        Slot::try_from(idx).expect("slot overflow")
    }

    /// Moves the statements opened since `mark` into the arena as a block.
    fn close_block(&mut self, mark: usize) -> Span {
        let start = self.stmts.len();
        self.stmts.extend(self.open_stmts.drain(mark..));
        span(start, self.stmts.len())
    }

    fn expr_id(&mut self) -> Result<ExprId, ParseError> {
        let e = self.expr()?;
        Ok(self.push(e))
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::Let) => {
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Tok::Assign)?;
                let value = self.expr_id()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Set {
                    slot: self.slot(name),
                    value,
                })
            }
            Some(Tok::If) => {
                self.pos += 1;
                let cond = self.expr_id()?;
                let then_block = self.block()?;
                let else_block = if self.eat(&Tok::Else) {
                    if self.peek() == Some(&Tok::If) {
                        let mark = self.open_stmts.len();
                        let stmt = self.stmt()?;
                        self.open_stmts.push(stmt);
                        self.close_block(mark)
                    } else {
                        self.block()?
                    }
                } else {
                    Span::default()
                };
                Ok(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                })
            }
            Some(Tok::For) => {
                self.pos += 1;
                let var = self.ident()?;
                self.expect(&Tok::In)?;
                let start = self.expr_id()?;
                self.expect(&Tok::DotDot)?;
                let end = self.expr_id()?;
                let body = self.block()?;
                Ok(Stmt::For {
                    slot: self.slot(var),
                    start,
                    end,
                    body,
                })
            }
            Some(Tok::Return) => {
                self.pos += 1;
                if self.eat(&Tok::Semi) {
                    Ok(Stmt::Return(None))
                } else {
                    let e = self.expr_id()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            // Assignment vs expression statement: IDENT '=' …
            Some(Tok::Ident(_)) if self.toks.get(self.pos + 1) == Some(&Tok::Assign) => {
                let name = self.ident()?;
                self.pos += 1; // '='
                let value = self.expr_id()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Set {
                    slot: self.slot(name),
                    value,
                })
            }
            _ => {
                let e = self.expr_id()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn block(&mut self) -> Result<Span, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mark = self.open_stmts.len();
        while self.peek() != Some(&Tok::RBrace) {
            if self.at_end() {
                return Err(self.err("unterminated block"));
            }
            let stmt = self.stmt()?;
            self.open_stmts.push(stmt);
        }
        self.pos += 1; // '}'
        Ok(self.close_block(mark))
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(&format!("expected identifier, found {other}"))),
        }
    }

    fn binary(&mut self, op: BinOp, lhs: Expr<'a>, rhs: Expr<'a>) -> Expr<'a> {
        Expr::Binary {
            op,
            lhs: self.push(lhs),
            rhs: self.push(rhs),
        }
    }

    fn expr(&mut self) -> Result<Expr<'a>, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.and_expr()?;
            lhs = self.binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = self.binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(self.binary(op, lhs, rhs))
    }

    fn add_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = self.binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = self.binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr<'a>, ParseError> {
        if self.eat(&Tok::Minus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Neg(self.push(inner)));
        }
        if self.eat(&Tok::Bang) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Not(self.push(inner)));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr<'a>, ParseError> {
        match self.next()? {
            Tok::Int(n) => Ok(Expr::Int(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::True => Ok(Expr::Bool(true)),
            Tok::False => Ok(Expr::Bool(false)),
            Tok::Null => Ok(Expr::Null),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(first) => {
                // Dotted path: ident ('.' ident)*
                let mut path = Cow::Borrowed(first);
                while self.eat(&Tok::Dot) {
                    let part = self.ident()?;
                    path = self.extend_path(path, part);
                }
                if self.eat(&Tok::LParen) {
                    let mark = self.open_args.len();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            let arg = self.expr()?;
                            self.open_args.push(arg);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    let start = self.exprs.len();
                    self.exprs.extend(self.open_args.drain(mark..));
                    let target = match &*path {
                        "str" => Target::Str,
                        "len" => Target::Len,
                        "substr" => Target::Substr,
                        "chr" => Target::Chr,
                        _ => Target::Host(path),
                    };
                    Ok(Expr::Call {
                        target,
                        args: span(start, self.exprs.len()),
                    })
                } else if path.contains('.') {
                    Err(self.err(&format!("dotted name {path} must be called")))
                } else {
                    Ok(Expr::Var(self.slot(first)))
                }
            }
            other => Err(self.err(&format!("unexpected token {other}"))),
        }
    }

    /// `path.part`, borrowed from the source when nothing separates the
    /// segments but the dot.
    fn extend_path(&self, path: Cow<'a, str>, part: &'a str) -> Cow<'a, str> {
        if let Cow::Borrowed(head) = path {
            let start = self.offset(head);
            let end = start + head.len();
            if self.offset(part) == end + 1 {
                return Cow::Borrowed(&self.src[start..end + 1 + part.len()]);
            }
        }
        let mut owned = path.into_owned();
        owned.push('.');
        owned.push_str(part);
        Cow::Owned(owned)
    }

    /// Byte offset of `part`, an identifier the lexer sliced from the
    /// source.
    fn offset(&self, part: &str) -> usize {
        part.as_ptr() as usize - self.src.as_ptr() as usize
    }
}

/// The span of arena indices `start..end`.
fn span(start: usize, end: usize) -> Span {
    Span {
        start: u32::try_from(start).expect("arena overflow"),
        len: u32::try_from(end - start).expect("arena overflow"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body<'p>(p: &'p Program<'_>) -> &'p [Stmt] {
        &p.stmts[p.body.range()]
    }

    fn block<'p>(p: &'p Program<'_>, span: Span) -> &'p [Stmt] {
        &p.stmts[span.range()]
    }

    fn expr<'p, 'a>(p: &'p Program<'a>, id: ExprId) -> &'p Expr<'a> {
        &p.exprs[id as usize]
    }

    #[test]
    fn parses_let_and_arith_precedence() {
        let p = parse_program("let x = 1 + 2 * 3;").unwrap();
        let Stmt::Set { slot, value } = body(&p)[0] else {
            panic!("expected let: {p:?}");
        };
        assert_eq!(p.names[slot as usize], "x");
        // 1 + (2*3)
        match expr(&p, value) {
            Expr::Binary {
                op: BinOp::Add,
                rhs,
                ..
            } => {
                assert!(matches!(
                    expr(&p, *rhs),
                    Expr::Binary { op: BinOp::Mul, .. }
                ));
            }
            other => panic!("wrong tree: {other:?}"),
        }
    }

    #[test]
    fn parses_host_call_borrowing_its_name() {
        let p = parse_program("canvas.fillText('hi', 2, 15); canvas . save(); str(1);").unwrap();
        let stmts = body(&p);
        let Stmt::Expr(call) = stmts[0] else {
            panic!("{p:?}");
        };
        match expr(&p, call) {
            Expr::Call {
                target: Target::Host(Cow::Borrowed(name)),
                args,
            } => {
                assert_eq!(*name, "canvas.fillText");
                assert_eq!(args.len, 3);
                assert_eq!(p.exprs[args.range()][0], Expr::Str(Cow::Borrowed("hi")));
            }
            other => panic!("{other:?}"),
        }
        // Spaces around the dot leave no source slice to borrow.
        let Stmt::Expr(call) = stmts[1] else {
            panic!("{p:?}");
        };
        assert!(matches!(
            expr(&p, call),
            Expr::Call { target: Target::Host(Cow::Owned(name)), .. } if name == "canvas.save"
        ));
        let Stmt::Expr(call) = stmts[2] else {
            panic!("{p:?}");
        };
        assert!(matches!(
            expr(&p, call),
            Expr::Call {
                target: Target::Str,
                ..
            }
        ));
    }

    #[test]
    fn variables_share_slots_by_name() {
        let p = parse_program("let a = 1; let b = a; a = b; for b in 0..2 { }").unwrap();
        assert_eq!(p.names, vec!["a", "b"]);
        let slots: Vec<_> = body(&p)
            .iter()
            .map(|s| match s {
                Stmt::Set { slot, .. } | Stmt::For { slot, .. } => *slot,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 0, 1]);
    }

    #[test]
    fn parses_for_and_if_else() {
        let p = parse_program(
            "for i in 0..50 { if i % 2 == 0 { canvas.measureText('mmm'); } else { noop(); } }",
        )
        .unwrap();
        match body(&p)[0] {
            Stmt::For { slot, body: b, .. } => {
                assert_eq!(p.names[slot as usize], "i");
                assert!(matches!(block(&p, b)[0], Stmt::If { .. }));
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse_program("if a { x(); } else if b { y(); } else { z(); }").unwrap();
        assert_eq!(body(&p).len(), 1);
        match body(&p)[0] {
            Stmt::If { else_block, .. } => {
                assert!(matches!(block(&p, else_block)[0], Stmt::If { .. }));
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assignment_vs_expression() {
        let p = parse_program("x = x + 1; f(x);").unwrap();
        assert!(matches!(body(&p)[0], Stmt::Set { .. }));
        let Stmt::Expr(call) = body(&p)[1] else {
            panic!("{p:?}");
        };
        assert!(matches!(expr(&p, call), Expr::Call { .. }));
    }

    #[test]
    fn dotted_name_without_call_is_an_error() {
        assert!(parse_program("let x = document.cookie;").is_err());
    }

    #[test]
    fn reports_errors() {
        assert!(parse_program("let = 1;").is_err());
        assert!(parse_program("if x { y();").is_err());
        assert!(parse_program("f(1,;").is_err());
        assert!(parse_program("let x = 1").is_err()); // missing semicolon
        assert_eq!(
            parse_program("let x = 1 2;").unwrap_err().message,
            "expected Semi, found Int(2) (token 5)"
        );
    }

    #[test]
    fn return_with_and_without_value() {
        let p = parse_program("return; return 42;").unwrap();
        assert_eq!(body(&p)[0], Stmt::Return(None));
        let Stmt::Return(Some(v)) = body(&p)[1] else {
            panic!("{p:?}");
        };
        assert_eq!(*expr(&p, v), Expr::Int(42));
    }
}
