//! Tree-walking interpreter with a step budget: the engine's previous
//! interpreter over a `HashMap` of named variables, kept as the oracle.

use std::collections::HashMap;

use super::ast::{BinOp, Expr, Program, Stmt};
use super::parser::{parse_program, ParseError};
use redlight::script::HostApi;
use redlight::script::Value;

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
    program: &Program,
    host: &mut dyn HostApi,
    budget: u64,
) -> Result<Value, ScriptError> {
    let mut interp = Interp {
        vars: HashMap::new(),
        host,
        steps_left: budget,
    };
    match interp.exec_block(&program.body)? {
        Flow::Return(v) => Ok(v),
        Flow::Normal => Ok(Value::Null),
    }
}

enum Flow {
    Normal,
    Return(Value),
}

struct Interp<'h> {
    vars: HashMap<String, Value>,
    host: &'h mut dyn HostApi,
    steps_left: u64,
}

impl Interp<'_> {
    fn tick(&mut self) -> Result<(), ScriptError> {
        if self.steps_left == 0 {
            return Err(ScriptError::BudgetExhausted);
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn exec_block(&mut self, stmts: &[Stmt]) -> Result<Flow, ScriptError> {
        for stmt in stmts {
            match self.exec_stmt(stmt)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow, ScriptError> {
        self.tick()?;
        match stmt {
            Stmt::Let { name, value } | Stmt::Assign { name, value } => {
                let v = self.eval(value)?;
                self.vars.insert(name.clone(), v);
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
                var,
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
                    self.vars.insert(var.clone(), Value::Int(i));
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

    fn eval(&mut self, expr: &Expr) -> Result<Value, ScriptError> {
        self.tick()?;
        match expr {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Var(name) => self
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| ScriptError::Undefined(name.clone())),
            Expr::Unary { negate, not, inner } => {
                let v = self.eval(inner)?;
                if *not {
                    return Ok(Value::Bool(!v.truthy()));
                }
                if *negate {
                    return match v {
                        // Wraps like every binary operator (the engine it
                        // models panicked here in debug builds).
                        Value::Int(n) => Ok(Value::Int(n.wrapping_neg())),
                        other => Err(ScriptError::Type(format!("cannot negate {other}"))),
                    };
                }
                Ok(v)
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Expr::Call { target, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                self.call(target, &vals)
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<Value, ScriptError> {
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
            _ => {}
        }
        let l = self.eval(lhs)?;
        let r = self.eval(rhs)?;
        match op {
            BinOp::Add => match (&l, &r) {
                (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
                // `+` with any string operand concatenates, like JS.
                (Value::Str(_), _) | (_, Value::Str(_)) => Ok(Value::Str(format!("{l}{r}"))),
                _ => Err(ScriptError::Type(format!("cannot add {l} and {r}"))),
            },
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
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }

    /// Builtins first, then the host.
    fn call(&mut self, target: &str, args: &[Value]) -> Result<Value, ScriptError> {
        match target {
            "str" => Ok(Value::Str(
                args.first().map(|v| v.to_string()).unwrap_or_default(),
            )),
            "len" => match args.first() {
                Some(Value::Str(s)) => Ok(Value::Int(s.chars().count() as i64)),
                _ => Err(ScriptError::Type("len expects a string".into())),
            },
            "substr" => match (args.first(), args.get(1), args.get(2)) {
                (Some(Value::Str(s)), Some(Value::Int(i)), Some(Value::Int(j))) => {
                    let chars: Vec<char> = s.chars().collect();
                    let i = (*i).clamp(0, chars.len() as i64) as usize;
                    let j = (*j).clamp(i as i64, chars.len() as i64) as usize;
                    Ok(Value::Str(chars[i..j].iter().collect()))
                }
                _ => Err(ScriptError::Type("substr expects (str, int, int)".into())),
            },
            "chr" => match args.first() {
                Some(Value::Int(n)) => Ok(Value::Str(
                    char::from_u32((*n).rem_euclid(0x110000_i64) as u32)
                        .unwrap_or('\u{fffd}')
                        .to_string(),
                )),
                _ => Err(ScriptError::Type("chr expects an int".into())),
            },
            _ => Ok(self.host.call(target, args)),
        }
    }
}
