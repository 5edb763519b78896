//! The script engine as it was before tokens borrowed from the source and
//! variables resolved to slots: an owning lexer, a parser that clones each
//! token, a boxed AST and an interpreter over named variables. Test-only:
//! `tests/script_oracle.rs` runs it next to `redlight::script` as the
//! oracle for return values, errors, host-call traces and step counts.

#![allow(dead_code)]

pub mod ast;
pub mod interp;
pub mod lexer;
pub mod parser;
