//! Abstract syntax tree.

use redlight::script::Value;

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

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A variable reference.
    Var(String),
    /// Unary negation (`-`) and/or logical not (`!`).
    Unary {
        /// Arithmetic negation requested.
        negate: bool,
        /// Logical not requested.
        not: bool,
        /// The operand.
        inner: Box<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A call to a dotted host function (`canvas.fillText`) or a builtin
    /// (`str`, `len`, `substr`, `chr`).
    Call {
        /// Dotted host-function or builtin name.
        target: String,
        /// Argument expressions, in order.
        args: Vec<Expr>,
    },
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let name = value;` — declares (or shadows) a variable.
    Let {
        /// Variable name.
        name: String,
        /// Initializer.
        value: Expr,
    },
    /// `name = value;` — reassignment.
    Assign {
        /// Variable name.
        name: String,
        /// New value.
        value: Expr,
    },
    /// A bare expression statement (usually a host call).
    Expr(Expr),
    /// `if cond { … } else { … }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Statements when the condition is truthy.
        then_block: Vec<Stmt>,
        /// Statements otherwise (empty when no `else`).
        else_block: Vec<Stmt>,
    },
    /// `for var in start..end { … }` — a bounded integer loop.
    For {
        /// Loop variable.
        var: String,
        /// Inclusive start expression.
        start: Expr,
        /// Exclusive end expression.
        end: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr?;` — ends the program with a value.
    Return(Option<Expr>),
}

/// A whole program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Top-level statements, in source order.
    pub body: Vec<Stmt>,
}
