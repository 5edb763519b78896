//! Abstract syntax tree, held in two arenas: a [`Program`] owns one vector
//! of expressions and one of statements, and nodes refer to each other by
//! index. A block is a run of consecutive statements, and a call's
//! arguments a run of consecutive expressions. Text borrows from the
//! source, and variables are resolved to numbered slots at parse time.

use std::borrow::Cow;
use std::ops::Range;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition / string concatenation (`+`).
    Add,
    /// Subtraction (`-`).
    Sub,
    /// Multiplication (`*`).
    Mul,
    /// Integer division (`/`).
    Div,
    /// Remainder (`%`).
    Mod,
    /// Equality (`==`).
    Eq,
    /// Inequality (`!=`).
    Ne,
    /// Less-than (`<`).
    Lt,
    /// Greater-than (`>`).
    Gt,
    /// Less-or-equal (`<=`).
    Le,
    /// Greater-or-equal (`>=`).
    Ge,
    /// Short-circuit conjunction (`&&`).
    And,
    /// Short-circuit disjunction (`||`).
    Or,
}

/// Index of an expression in `Program::exprs`.
pub type ExprId = u32;

/// Index of a variable's slot; [`Program::names`] holds its name.
pub type Slot = u32;

/// A run of consecutive arena entries: a block's statements or a call's
/// arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Index of the first entry.
    pub start: u32,
    /// Number of entries.
    pub len: u32,
}

impl Span {
    /// The arena indices the span covers.
    pub(crate) fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// What a call invokes: a builtin, resolved by name at parse time, or a
/// host function.
#[derive(Debug, Clone, PartialEq)]
pub enum Target<'a> {
    /// `str(v)`.
    Str,
    /// `len(s)`.
    Len,
    /// `substr(s, i, j)`.
    Substr,
    /// `chr(n)`.
    Chr,
    /// A host function (`canvas.fillText`), by its dotted name.
    Host(Cow<'a, str>),
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'a> {
    /// An integer literal.
    Int(i64),
    /// `true` or `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A string literal.
    Str(Cow<'a, str>),
    /// A variable reference.
    Var(Slot),
    /// Arithmetic negation (`-`).
    Neg(ExprId),
    /// Logical not (`!`).
    Not(ExprId),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: ExprId,
        /// Right operand.
        rhs: ExprId,
    },
    /// A call to a builtin or a dotted host function.
    Call {
        /// What is called.
        target: Target<'a>,
        /// Argument expressions, in order.
        args: Span,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = value;` or `name = value;`: both store into the slot.
    Set {
        /// The variable's slot.
        slot: Slot,
        /// New value.
        value: ExprId,
    },
    /// A bare expression statement (usually a host call).
    Expr(ExprId),
    /// `if cond { … } else { … }`.
    If {
        /// Branch condition.
        cond: ExprId,
        /// Statements when the condition is truthy.
        then_block: Span,
        /// Statements otherwise (empty when no `else`).
        else_block: Span,
    },
    /// `for var in start..end { … }` — a bounded integer loop.
    For {
        /// The loop variable's slot.
        slot: Slot,
        /// Inclusive start expression.
        start: ExprId,
        /// Exclusive end expression.
        end: ExprId,
        /// Loop body.
        body: Span,
    },
    /// `return expr?;` — ends the program with a value.
    Return(Option<ExprId>),
}

/// A whole program, borrowing its text from the source.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<'a> {
    /// Every expression; nodes refer to their operands by index.
    pub(crate) exprs: Vec<Expr<'a>>,
    /// Every statement; blocks are runs of consecutive statements.
    pub stmts: Vec<Stmt>,
    /// The top-level statements, in source order.
    pub body: Span,
    /// Variable names, indexed by slot.
    pub names: Vec<&'a str>,
}
