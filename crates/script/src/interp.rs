//! Tree-walking interpreter with a step budget.
//!
//! Variables live in slots numbered at parse time, and call arguments on
//! one stack that every call shares. String `+` grows its left operand's
//! buffer, and a string literal operand of `+` is copied straight from the
//! program text.

use std::fmt::Write as _;

use crate::ast::{BinOp, Expr, ExprId, Program, Span, Stmt, Target};
use crate::hostapi::HostApi;
use crate::parser::{parse_program, ParseError};
use crate::value::Value;

/// Errors surfaced while running a script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScriptError {
    /// The source failed to parse.
    Parse(String),
    /// Reference to an undefined variable.
    Undefined(String),
    /// Type error in an operator or builtin.
    Type(String),
    /// Division or modulo by zero.
    DivideByZero,
    /// The step budget was exhausted (runaway loop).
    BudgetExhausted,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Parse(m) => write!(f, "parse: {m}"),
            ScriptError::Undefined(v) => write!(f, "undefined variable {v}"),
            ScriptError::Type(m) => write!(f, "type error: {m}"),
            ScriptError::DivideByZero => write!(f, "division by zero"),
            ScriptError::BudgetExhausted => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for ScriptError {}

impl From<ParseError> for ScriptError {
    fn from(e: ParseError) -> Self {
        ScriptError::Parse(e.message)
    }
}

/// Default step budget: generous for fingerprinting loops, tight enough to
/// stop a runaway script within microseconds.
pub const DEFAULT_BUDGET: u64 = 200_000;

/// Extra room a string started by `+` reserves, so the usual
/// `'a' + x + 'b' + y` chain appends without growing its buffer again.
const CONCAT_ROOM: usize = 32;

/// Parses and runs `src` against `host` with the default budget. Returns the
/// script's `return` value (or `Null`).
pub fn run(src: &str, host: &mut dyn HostApi) -> Result<Value, ScriptError> {
    run_with_budget(src, host, DEFAULT_BUDGET)
}

/// Parses and runs `src` with an explicit step budget.
pub fn run_with_budget(
    src: &str,
    host: &mut dyn HostApi,
    budget: u64,
) -> Result<Value, ScriptError> {
    let program = parse_program(src)?;
    run_program(&program, host, budget)
}

/// Runs an already-parsed program.
pub fn run_program(
    program: &Program<'_>,
    host: &mut dyn HostApi,
    budget: u64,
) -> Result<Value, ScriptError> {
    let mut interp = Interp {
        prog: program,
        slots: vec![None; program.names.len()],
        args: Vec::new(),
        host,
        steps_left: budget,
    };
    match interp.exec_block(program.body)? {
        Flow::Return(v) => Ok(v),
        Flow::Normal => Ok(Value::Null),
    }
}

enum Flow {
    Normal,
    Return(Value),
}

struct Interp<'p, 'a, 'h> {
    prog: &'p Program<'a>,
    /// Variable values by slot; `None` until first assigned.
    slots: Vec<Option<Value>>,
    /// Evaluated arguments of the calls in progress, innermost last.
    args: Vec<Value>,
    host: &'h mut dyn HostApi,
    steps_left: u64,
}

impl Interp<'_, '_, '_> {
    fn tick(&mut self) -> Result<(), ScriptError> {
        if self.steps_left == 0 {
            return Err(ScriptError::BudgetExhausted);
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn exec_block(&mut self, block: Span) -> Result<Flow, ScriptError> {
        let prog = self.prog;
        for stmt in &prog.stmts[block.range()] {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, ScriptError> {
        self.tick()?;
        match *stmt {
            Stmt::Set { slot, value } => {
                let v = self.eval(value)?;
                self.slots[slot as usize] = Some(v);
                Ok(Flow::Normal)
            }
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
            } => {
                if self.eval(cond)?.truthy() {
                    self.exec_block(then_block)
                } else {
                    self.exec_block(else_block)
                }
            }
            Stmt::For {
                slot,
                start,
                end,
                body,
            } => {
                let s = self
                    .eval(start)?
                    .as_int()
                    .ok_or_else(|| ScriptError::Type("for range start must be int".into()))?;
                let e = self
                    .eval(end)?
                    .as_int()
                    .ok_or_else(|| ScriptError::Type("for range end must be int".into()))?;
                for i in s..e {
                    self.tick()?;
                    self.slots[slot as usize] = Some(Value::Int(i));
                    match self.exec_block(body)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(expr) => {
                let v = match expr {
                    Some(e) => self.eval(e)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
        }
    }

    fn eval(&mut self, id: ExprId) -> Result<Value, ScriptError> {
        self.tick()?;
        let prog = self.prog;
        match &prog.exprs[id as usize] {
            Expr::Int(n) => Ok(Value::Int(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Str(s) => Ok(Value::Str(String::from(&**s))),
            Expr::Var(slot) => self.slots[*slot as usize]
                .clone()
                .ok_or_else(|| ScriptError::Undefined(prog.names[*slot as usize].to_string())),
            Expr::Neg(inner) => match self.eval(*inner)? {
                Value::Int(n) => Ok(Value::Int(n.wrapping_neg())),
                other => Err(ScriptError::Type(format!("cannot negate {other}"))),
            },
            Expr::Not(inner) => Ok(Value::Bool(!self.eval(*inner)?.truthy())),
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, *lhs, *rhs),
            Expr::Call { target, args } => {
                let base = self.args.len();
                for arg in args.range() {
                    let v = self.eval(arg as ExprId)?;
                    self.args.push(v);
                }
                let out = self.call(target, base);
                self.args.truncate(base);
                out
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: ExprId, rhs: ExprId) -> Result<Value, ScriptError> {
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                let l = self.eval(lhs)?;
                if !l.truthy() {
                    return Ok(Value::Bool(false));
                }
                return Ok(Value::Bool(self.eval(rhs)?.truthy()));
            }
            BinOp::Or => {
                let l = self.eval(lhs)?;
                if l.truthy() {
                    return Ok(Value::Bool(true));
                }
                return Ok(Value::Bool(self.eval(rhs)?.truthy()));
            }
            BinOp::Add => return self.eval_add(lhs, rhs),
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        match op {
            BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let (a, b) = match (l.as_int(), r.as_int()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => return Err(ScriptError::Type("arithmetic requires integers".into())),
                };
                match op {
                    BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
                    BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                    BinOp::Div => {
                        if b == 0 {
                            Err(ScriptError::DivideByZero)
                        } else {
                            Ok(Value::Int(a.wrapping_div(b)))
                        }
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            Err(ScriptError::DivideByZero)
                        } else {
                            Ok(Value::Int(a.wrapping_rem(b)))
                        }
                    }
                    _ => unreachable!(),
                }
            }
            BinOp::Eq => Ok(Value::Bool(l == r)),
            BinOp::Ne => Ok(Value::Bool(l != r)),
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                let ord = match (&l, &r) {
                    (Value::Int(a), Value::Int(b)) => a.cmp(b),
                    (Value::Str(a), Value::Str(b)) => a.cmp(b),
                    _ => return Err(ScriptError::Type(format!("cannot compare {l} and {r}"))),
                };
                Ok(Value::Bool(match op {
                    BinOp::Lt => ord.is_lt(),
                    BinOp::Gt => ord.is_gt(),
                    BinOp::Le => ord.is_le(),
                    BinOp::Ge => ord.is_ge(),
                    _ => unreachable!(),
                }))
            }
            BinOp::And | BinOp::Or | BinOp::Add => unreachable!("handled above"),
        }
    }

    /// `+`: integer addition, or concatenation (like JS) when either side
    /// is a string. Each literal operand still costs its step.
    fn eval_add(&mut self, lhs: ExprId, rhs: ExprId) -> Result<Value, ScriptError> {
        let prog = self.prog;
        let l = match &prog.exprs[lhs as usize] {
            // A literal left operand starts the result's buffer.
            Expr::Str(lit) => {
                self.tick()?;
                let mut s = String::with_capacity(lit.len() + CONCAT_ROOM);
                s.push_str(lit);
                Value::Str(s)
            }
            _ => self.eval(lhs)?,
        };
        if let Expr::Str(lit) = &prog.exprs[rhs as usize] {
            self.tick()?;
            return Ok(Value::Str(match l {
                Value::Str(mut s) => {
                    s.push_str(lit);
                    s
                }
                other => format!("{other}{lit}"),
            }));
        }
        let r = self.eval(rhs)?;
        match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(b))),
            (Value::Str(mut s), r) => {
                match r {
                    Value::Str(t) => s.push_str(&t),
                    other => write!(s, "{other}").expect("writing to a String cannot fail"),
                }
                Ok(Value::Str(s))
            }
            (l, Value::Str(t)) => Ok(Value::Str(format!("{l}{t}"))),
            (l, r) => Err(ScriptError::Type(format!("cannot add {l} and {r}"))),
        }
    }

    /// Builtins first, then the host. The arguments are `self.args[base..]`.
    fn call(&mut self, target: &Target<'_>, base: usize) -> Result<Value, ScriptError> {
        let args = &self.args[base..];
        match target {
            Target::Str => Ok(Value::Str(
                args.first().map(|v| v.to_string()).unwrap_or_default(),
            )),
            Target::Len => match args.first() {
                Some(Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
                _ => Err(ScriptError::Type("len expects a string".into())),
            },
            Target::Substr => match (args.first(), args.get(1), args.get(2)) {
                (Some(Value::Str(s)), Some(Value::Int(i)), Some(Value::Int(j))) => {
                    let n = s.chars().count() as i64;
                    let i = (*i).clamp(0, n);
                    let j = (*j).clamp(i, n);
                    let byte =
                        |k: i64| s.char_indices().nth(k as usize).map_or(s.len(), |(b, _)| b);
                    Ok(Value::Str(s[byte(i)..byte(j)].to_string()))
                }
                _ => Err(ScriptError::Type("substr expects (str, int, int)".into())),
            },
            Target::Chr => match args.first() {
                Some(Value::Int(n)) => Ok(Value::Str(
                    char::from_u32((*n).rem_euclid(0x110000_i64) as u32)
                        .unwrap_or('\u{fffd}')
                        .to_string(),
                )),
                _ => Err(ScriptError::Type("chr expects an int".into())),
            },
            Target::Host(name) => Ok(self.host.call(name, args)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostapi::CollectingHost;

    fn eval_return(src: &str) -> Value {
        let mut h = CollectingHost::default();
        run(src, &mut h).unwrap()
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(eval_return("return 2 + 3 * 4;"), Value::Int(14));
        assert_eq!(eval_return("return (2 + 3) * 4;"), Value::Int(20));
        assert_eq!(eval_return("return 10 % 3;"), Value::Int(1));
        assert_eq!(eval_return("return -5 + 2;"), Value::Int(-3));
    }

    #[test]
    fn string_concat_like_js() {
        assert_eq!(
            eval_return("return 'uid=' + 42 + '&v=' + true;"),
            Value::Str("uid=42&v=true".into())
        );
    }

    #[test]
    fn loops_accumulate() {
        assert_eq!(
            eval_return("let s = 0; for i in 1..5 { s = s + i; } return s;"),
            Value::Int(10)
        );
    }

    #[test]
    fn if_else_branches() {
        assert_eq!(
            eval_return("let x = 5; if x > 3 { return 'big'; } else { return 'small'; }"),
            Value::Str("big".into())
        );
        assert_eq!(
            eval_return("if 1 > 3 { return 'a'; } else if 2 > 1 { return 'b'; } return 'c';"),
            Value::Str("b".into())
        );
    }

    #[test]
    fn short_circuit_does_not_eval_rhs() {
        // If rhs were evaluated, the undefined variable would error.
        assert_eq!(eval_return("return false && missing;"), Value::Bool(false));
        assert_eq!(eval_return("return true || missing;"), Value::Bool(true));
    }

    #[test]
    fn builtins() {
        assert_eq!(eval_return("return len('abcd');"), Value::Int(4));
        assert_eq!(
            eval_return("return substr('abcdef', 1, 4);"),
            Value::Str("bcd".into())
        );
        assert_eq!(eval_return("return chr(65);"), Value::Str("A".into()));
        assert_eq!(
            eval_return("return str(12) + str(true);"),
            Value::Str("12true".into())
        );
        // substr clamps out-of-range indices.
        assert_eq!(
            eval_return("return substr('ab', 5, 9);"),
            Value::Str("".into())
        );
    }

    #[test]
    fn host_calls_are_recorded_in_order() {
        let mut h = CollectingHost::default();
        run(
            "for i in 0..3 { canvas.measureText('mmmm' + i); } document.setCookie('u', 'x');",
            &mut h,
        )
        .unwrap();
        assert_eq!(h.calls.len(), 4);
        assert_eq!(h.calls[0].0, "canvas.measureText");
        assert_eq!(h.calls[0].1[0], Value::Str("mmmm0".into()));
        assert_eq!(h.calls[3].0, "document.setCookie");
    }

    #[test]
    fn host_return_values_flow_back() {
        let mut h = CollectingHost {
            responses: vec![("document.getCookie".into(), Value::Str("uid=42".into()))],
            ..Default::default()
        };
        let v = run("return document.getCookie('uid');", &mut h).unwrap();
        assert_eq!(v, Value::Str("uid=42".into()));
    }

    #[test]
    fn runtime_errors() {
        let mut h = CollectingHost::default();
        assert_eq!(run("return 1 / 0;", &mut h), Err(ScriptError::DivideByZero));
        assert!(matches!(
            run("return missing;", &mut h),
            Err(ScriptError::Undefined(_))
        ));
        assert!(matches!(
            run("return 'a' - 1;", &mut h),
            Err(ScriptError::Type(_))
        ));
    }

    #[test]
    fn budget_stops_runaway_loops() {
        let mut h = CollectingHost::default();
        let err = run_with_budget(
            "let x = 0; for i in 0..1000000000 { x = x + 1; }",
            &mut h,
            10_000,
        )
        .unwrap_err();
        assert_eq!(err, ScriptError::BudgetExhausted);
    }

    #[test]
    fn negating_the_minimum_wraps() {
        assert_eq!(
            eval_return("let x = 0 - 9223372036854775807 - 1; return -x;"),
            Value::Int(i64::MIN)
        );
    }

    #[test]
    fn concatenation_grows_the_left_operand() {
        assert_eq!(
            eval_return("let s = 'a'; s = s + 1 + '-' + null + true; return 2 + s + ('' + 3);"),
            Value::Str("2a1-nulltrue3".into())
        );
        let mut h = CollectingHost::default();
        assert_eq!(
            run("return 1 + false;", &mut h),
            Err(ScriptError::Type("cannot add 1 and false".into()))
        );
    }

    #[test]
    fn early_return_exits_loop() {
        assert_eq!(
            eval_return("for i in 0..100 { if i == 7 { return i; } } return -1;"),
            Value::Int(7)
        );
    }
}
