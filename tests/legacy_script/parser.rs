//! Recursive-descent parser: token stream → [`Program`]. The engine's
//! previous parser, which clones each token it consumes.

use super::ast::{BinOp, Expr, Program, Stmt};
use super::lexer::{lex, LexError, Tok};
use redlight::script::Value;

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

/// Parses source text into a program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0 };
    let mut body = Vec::new();
    while !p.at_end() {
        body.push(p.stmt()?);
    }
    Ok(Program { body })
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .toks
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: &Tok) -> Result<(), ParseError> {
        let t = self.next()?;
        if &t == tok {
            Ok(())
        } else {
            Err(self.err(&format!("expected {tok}, found {t}")))
        }
    }

    fn eat(&mut self, tok: &Tok) -> bool {
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

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Some(Tok::Let) => {
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Tok::Assign)?;
                let value = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Let { name, value })
            }
            Some(Tok::If) => {
                self.pos += 1;
                let cond = self.expr()?;
                let then_block = self.block()?;
                let else_block = if self.eat(&Tok::Else) {
                    if self.peek() == Some(&Tok::If) {
                        vec![self.stmt()?]
                    } else {
                        self.block()?
                    }
                } else {
                    Vec::new()
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
                let start = self.expr()?;
                self.expect(&Tok::DotDot)?;
                let end = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::For {
                    var,
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
                    let e = self.expr()?;
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::Return(Some(e)))
                }
            }
            // Assignment vs expression statement: IDENT '=' …
            Some(Tok::Ident(_)) if self.toks.get(self.pos + 1) == Some(&Tok::Assign) => {
                let name = self.ident()?;
                self.pos += 1; // '='
                let value = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Assign { name, value })
            }
            _ => {
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut body = Vec::new();
        while self.peek() != Some(&Tok::RBrace) {
            if self.at_end() {
                return Err(self.err("unterminated block"));
            }
            body.push(self.stmt()?);
        }
        self.pos += 1; // '}'
        Ok(body)
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(&format!("expected identifier, found {other}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Tok::OrOr) {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Tok::AndAnd) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(BinOp::Eq),
            Some(Tok::Ne) => Some(BinOp::Ne),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.pos += 1;
                let rhs = self.add_expr()?;
                Ok(Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                })
            }
            None => Ok(lhs),
        }
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
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
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Tok::Minus) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary {
                negate: true,
                not: false,
                inner: Box::new(inner),
            });
        }
        if self.eat(&Tok::Bang) {
            let inner = self.unary_expr()?;
            return Ok(Expr::Unary {
                negate: false,
                not: true,
                inner: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        match self.next()? {
            Tok::Int(n) => Ok(Expr::Literal(Value::Int(n))),
            Tok::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Tok::True => Ok(Expr::Literal(Value::Bool(true))),
            Tok::False => Ok(Expr::Literal(Value::Bool(false))),
            Tok::Null => Ok(Expr::Literal(Value::Null)),
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(first) => {
                // Dotted path: ident ('.' ident)*
                let mut path = first;
                while self.eat(&Tok::Dot) {
                    let part = self.ident()?;
                    path.push('.');
                    path.push_str(&part);
                }
                if self.eat(&Tok::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Call { target: path, args })
                } else if path.contains('.') {
                    Err(self.err(&format!("dotted name {path} must be called")))
                } else {
                    Ok(Expr::Var(path))
                }
            }
            other => Err(self.err(&format!("unexpected token {other}"))),
        }
    }
}
