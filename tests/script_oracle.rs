//! The script engine against its previous implementation.
//!
//! `redlight::script` lexes into borrowed tokens, parses into arenas with
//! variables resolved to slots, and appends string `+` in place. The
//! engine it replaced (an owning lexer, a token-cloning parser, a boxed
//! AST and an interpreter over named variables) lives on, test-only, in
//! `tests/legacy_script/`. Both run the same programs against the same
//! host: drawn programs covering the whole grammar, and every script
//! family `websim::scriptgen` serves. At every step budget from 0 to the
//! program's step count they must return the same value or error and make
//! the same host calls with the same arguments, so a budget-exhausted
//! script stops at the same call in both.

mod legacy_script;

use proptest::prelude::*;
use rand::prelude::*;
use redlight::script::interp::DEFAULT_BUDGET;
use redlight::script::{CollectingHost, Value};
use redlight::websim::{scriptgen, World, WorldConfig};

/// Drawn programs are swept up to this budget and checked at the default
/// one beyond it: a drawn loop can run for as long as the budget lasts.
const MAX_SWEPT_STEPS: u64 = 700;

/// The host both engines call: canned answers of every value type, and
/// `Null` for anything else.
fn host() -> CollectingHost {
    let responses = [
        ("host.num", Value::Int(7)),
        ("host.big", Value::Int(i64::MAX)),
        ("host.text", Value::Str("é\"x".into())),
        ("host.flag", Value::Bool(true)),
        ("canvas.measureText", Value::Int(7)),
        (
            "canvas.toDataURL",
            Value::Str("data:image/png;base64,AAAA".into()),
        ),
        ("document.getCookie", Value::Str("fp.site.1.abc".into())),
        ("entropy.value", Value::Str("00c0ffee0042".into())),
        ("entropy.hash", Value::Str("0123456789abcdef".into())),
        ("page.host", Value::Str("site.example".into())),
        (
            "navigator.userAgent",
            Value::Str("Mozilla/5.0 Firefox/52.0".into()),
        ),
        ("screen.width", Value::Int(1366)),
        ("webrtc.candidate", Value::Str("192.168.1.23".into())),
    ];
    CollectingHost {
        calls: Vec::new(),
        responses: responses
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
    }
}

/// One program as both engines parse it.
struct Parsed<'s> {
    src: &'s str,
    new: redlight::script::ast::Program<'s>,
    old: legacy_script::ast::Program,
}

impl<'s> Parsed<'s> {
    /// Parses `src` in both engines; `None` when both reject it with the
    /// same message.
    fn parse(src: &'s str) -> Option<Parsed<'s>> {
        match (
            redlight::script::parse_program(src),
            legacy_script::parser::parse_program(src),
        ) {
            (Ok(new), Ok(old)) => Some(Parsed { src, new, old }),
            (new, old) => {
                assert_eq!(
                    new.err().map(|e| e.message),
                    old.err().map(|e| e.message),
                    "parse of:\n{src}"
                );
                None
            }
        }
    }

    /// Runs both programs with `budget`, each on a fresh host, and asserts
    /// that they return the same and call the host alike; `false` when the
    /// budget ran out.
    fn agree_at(&self, budget: u64) -> bool {
        let (mut new_host, mut old_host) = (host(), host());
        let new = redlight::script::interp::run_program(&self.new, &mut new_host, budget);
        let old = legacy_script::interp::run_program(&self.old, &mut old_host, budget);
        // The two error enums share variant names and payloads.
        let (new, old) = (format!("{new:?}"), format!("{old:?}"));
        let src = self.src;
        assert_eq!(new, old, "result at budget {budget} of:\n{src}");
        assert_eq!(
            new_host.calls, old_host.calls,
            "host calls at budget {budget} of:\n{src}"
        );
        new != "Err(BudgetExhausted)"
    }
}

/// Checks `src` at the default budget and at every budget from 0 up to its
/// step count or `max_swept`, whichever is lower.
fn assert_engines_agree(src: &str, max_swept: u64) {
    let Some(parsed) = Parsed::parse(src) else {
        return;
    };
    parsed.agree_at(DEFAULT_BUDGET);
    for budget in 0..=max_swept {
        if parsed.agree_at(budget) {
            break;
        }
    }
}

/// Draws syntactically well-formed programs over the whole grammar.
/// Expressions are mostly well-typed, so programs run long enough to
/// reach their later statements; undefined variables, type errors,
/// division by zero and budget exhaustion still occur and are compared.
struct Programs;

impl Strategy for Programs {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let mut g = Gen {
            rng,
            out: String::new(),
        };
        // Every variable but `undef` starts set, to a value of its type.
        for v in INT_VARS {
            g.out.push_str(&format!("let {v} = "));
            g.int_literal();
            g.out.push_str(";\n");
        }
        for v in STR_VARS {
            g.out.push_str(&format!("let {v} = "));
            g.string_literal();
            g.out.push_str(";\n");
        }
        let n = g.rng.random_range(2..10);
        g.block_body(n, 0);
        g.out
    }
}

/// What an expression is drawn to evaluate to.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Str,
    Bool,
}

const INT_VARS: [&str; 4] = ["a", "b", "i", "n_1"];
const STR_VARS: [&str; 2] = ["s", "_x"];
const HOST_CALLS: [&str; 7] = [
    "host.num",
    "host.big",
    "host.text",
    "host.flag",
    "host.nothing",
    "canvas.fillText",
    "a.b.c",
];
const INT_OPS: [&str; 5] = ["+", "-", "*", "/", "%"];
const CMP_OPS: [&str; 6] = ["==", "!=", "<", ">", "<=", ">="];

struct Gen<'r> {
    rng: &'r mut StdRng,
    out: String,
}

impl Gen<'_> {
    fn pick<'s>(&mut self, items: &[&'s str]) -> &'s str {
        items[self.rng.random_range(0..items.len())]
    }

    fn chance(&mut self, percent: u32) -> bool {
        self.rng.random_range(0..100u32) < percent
    }

    fn push(&mut self, text: &str) {
        self.out.push_str(text);
    }

    fn block_body(&mut self, n: usize, depth: u32) {
        for _ in 0..n {
            self.stmt(depth);
        }
    }

    fn block(&mut self, depth: u32) {
        self.push(" {\n");
        let n = self.rng.random_range(0..4);
        self.block_body(n, depth + 1);
        self.push("}\n");
    }

    /// Usually a kind that fits the variable, now and then another one.
    fn kind_for(&mut self, var: &str) -> Kind {
        match self.rng.random_range(0..20) {
            0 => Kind::Bool,
            1 => Kind::Str,
            _ if STR_VARS.contains(&var) => Kind::Str,
            _ => Kind::Int,
        }
    }

    fn stmt(&mut self, depth: u32) {
        if self.chance(10) {
            self.push("// note: \"quoted\" 'text'\n");
        }
        match self.rng.random_range(0..100) {
            0..=34 => {
                let var = if self.chance(60) {
                    self.pick(&INT_VARS)
                } else {
                    self.pick(&STR_VARS)
                };
                let kind = self.kind_for(var);
                let keyword = if self.chance(40) { "let " } else { "" };
                self.push(&format!("{keyword}{var} = "));
                self.expr(kind, 0);
                self.push(";\n");
            }
            35..=49 if depth < 3 => {
                self.push("if ");
                self.expr(Kind::Bool, 1);
                self.block(depth);
                while self.chance(30) {
                    self.push("else if ");
                    self.expr(Kind::Bool, 1);
                    self.block(depth);
                }
                if self.chance(50) {
                    self.push("else");
                    self.block(depth);
                }
            }
            50..=64 if depth < 3 => {
                let var = self.pick(&INT_VARS);
                let start: i64 = self.rng.random_range(-2..3);
                self.push(&format!("for {var} in {start}.."));
                if self.chance(80) {
                    let end: i64 = self.rng.random_range(-1..7);
                    self.push(&end.to_string());
                } else {
                    self.expr(Kind::Int, 2);
                }
                self.block(depth);
            }
            65..=67 => {
                if self.chance(30) {
                    self.push("return;\n");
                } else {
                    self.push("return ");
                    let kind = self.kind_for("");
                    self.expr(kind, 0);
                    self.push(";\n");
                }
            }
            _ => {
                self.host_call(1);
                self.push(";\n");
            }
        }
    }

    /// An expression of roughly `kind`: a chain of operands joined by
    /// same-precedence or mixed operators without parentheses, so the
    /// parser's precedence and associativity are exercised.
    fn expr(&mut self, kind: Kind, depth: u32) {
        if depth > 3 || self.chance(30) {
            return self.operand(kind, depth);
        }
        match kind {
            Kind::Int => {
                self.operand(Kind::Int, depth + 1);
                for _ in 0..self.rng.random_range(0..3) {
                    let op = self.pick(&INT_OPS);
                    self.push(&format!(" {op} "));
                    self.operand(Kind::Int, depth + 1);
                }
            }
            Kind::Str => {
                self.operand(Kind::Str, depth + 1);
                for _ in 0..self.rng.random_range(0..3) {
                    self.push(" + ");
                    let kind = if self.chance(60) {
                        Kind::Str
                    } else {
                        Kind::Int
                    };
                    self.operand(kind, depth + 1);
                }
            }
            Kind::Bool => {
                // `x < y`, then `&&` / `||` chains of such comparisons.
                for k in 0..self.rng.random_range(1..4) {
                    if k > 0 {
                        let op = if self.chance(50) { " && " } else { " || " };
                        self.push(op);
                    }
                    let side = if self.chance(70) {
                        Kind::Int
                    } else {
                        Kind::Str
                    };
                    self.expr(side, depth + 1);
                    let op = self.pick(&CMP_OPS);
                    self.push(&format!(" {op} "));
                    self.expr(side, depth + 1);
                }
            }
        }
    }

    fn operand(&mut self, kind: Kind, depth: u32) {
        let deep = depth > 3;
        match self.rng.random_range(0..100) {
            // Wrong-typed or undefined operands, now and then.
            0..=2 => {
                let lit = self.pick(&["true", "false", "null"]);
                self.push(lit);
            }
            3 => self.push("undef"),
            4..=6 if !deep => self.builtin(kind, depth),
            7..=14 if !deep => {
                // Mostly a host function that answers with this kind.
                let name = match kind {
                    _ if self.chance(20) => self.pick(&HOST_CALLS),
                    Kind::Int => self.pick(&["host.num", "host.big"]),
                    Kind::Str => "host.text",
                    Kind::Bool => "host.flag",
                };
                self.host_call_to(name, depth);
            }
            15..=24 if !deep => {
                self.push("(");
                self.expr(kind, depth + 1);
                self.push(")");
            }
            25..=31 if !deep => {
                // `-` on anything but an integer is a type error.
                let negate = match kind {
                    Kind::Int => self.chance(80),
                    Kind::Str => self.chance(10),
                    Kind::Bool => false,
                };
                self.push(if negate { "-" } else { "!" });
                let inner = if kind == Kind::Str { Kind::Int } else { kind };
                self.operand(inner, depth + 1);
            }
            32..=59 => {
                let var = match kind {
                    Kind::Str => self.pick(&STR_VARS),
                    _ => self.pick(&INT_VARS),
                };
                self.push(var);
            }
            _ => match kind {
                Kind::Str => self.string_literal(),
                Kind::Int => self.int_literal(),
                Kind::Bool => {
                    let lit = self.pick(&["true", "false", "1", "''"]);
                    self.push(lit);
                }
            },
        }
    }

    /// Small integers, zero, and values at and past `i64`'s ends.
    fn int_literal(&mut self) {
        let lit = match self.rng.random_range(0..14) {
            0 => "9223372036854775807".to_string(),
            1 => "9223372036854775806".to_string(),
            2 => "(-9223372036854775807 - 1)".to_string(),
            3 => "(0 - 9223372036854775807 - 2)".to_string(),
            4 => "0".to_string(),
            _ => self.rng.random_range(1..12u32).to_string(),
        };
        self.push(&lit);
    }

    /// A string literal with escapes, both quote styles and non-ASCII text.
    fn string_literal(&mut self) {
        let quote = if self.chance(50) { "'" } else { "\"" };
        self.push(quote);
        for _ in 0..self.rng.random_range(0..6) {
            let piece = match self.rng.random_range(0..11) {
                0 => "\\n",
                1 => "\\t",
                2 => "\\'",
                3 => "\\\"",
                4 => "\\\\",
                5 => "\\q",
                6 => "é",
                7 => "漢🦀",
                8 if quote == "'" => "\"",
                8 => "'",
                9 => " ",
                _ => "ab",
            };
            self.push(piece);
        }
        self.push(quote);
    }

    /// `str`, `len`, `substr` or `chr`, mostly one that answers with
    /// `kind`, now and then with a wrong argument or one too many.
    fn builtin(&mut self, kind: Kind, depth: u32) {
        let roll = match kind {
            _ if self.chance(20) => self.rng.random_range(0..4usize),
            Kind::Int => 1,
            _ => [0, 2, 3][self.rng.random_range(0..3usize)],
        };
        let (name, kinds): (&str, &[Kind]) = match roll {
            0 => ("str", &[Kind::Int]),
            1 => ("len", &[Kind::Str]),
            2 => ("substr", &[Kind::Str, Kind::Int, Kind::Int]),
            _ => ("chr", &[Kind::Int]),
        };
        self.push(name);
        self.args(kinds, depth);
    }

    /// A dotted host call, sometimes spaced around its dots.
    fn host_call(&mut self, depth: u32) {
        let name = self.pick(&HOST_CALLS);
        self.host_call_to(name, depth);
    }

    fn host_call_to(&mut self, name: &str, depth: u32) {
        if self.chance(15) {
            self.push(&name.replace('.', " . "));
        } else {
            self.push(name);
        }
        let kinds = [Kind::Str, Kind::Int];
        let n = self.rng.random_range(0..3);
        self.args(&kinds[..n], depth);
    }

    fn args(&mut self, kinds: &[Kind], depth: u32) {
        self.push("(");
        let extra = self.chance(5);
        for (k, &kind) in kinds.iter().chain(extra.then_some(&Kind::Int)).enumerate() {
            if k > 0 {
                self.push(", ");
            }
            let kind = if self.chance(5) { Kind::Bool } else { kind };
            self.expr(kind, depth + 1);
        }
        self.push(")");
    }
}

proptest! {
    #[test]
    fn drawn_programs_run_alike_at_every_budget(src in Programs) {
        assert_engines_agree(&src, MAX_SWEPT_STEPS);
    }
}

#[test]
fn every_scriptgen_family_runs_alike_at_every_budget() {
    let world = World::build(WorldConfig::tiny(3));
    let mut sources = Vec::new();
    for svc in world.services.iter() {
        for variant in 0..3 {
            sources.push(scriptgen::tag_script(svc, variant));
            sources.push(scriptgen::canvas_fp_script(svc, variant));
            sources.push(scriptgen::webrtc_script(svc, variant));
        }
        sources.push(scriptgen::analytics_script(svc, 1));
        sources.push(scriptgen::font_fp_script(svc));
        sources.push(scriptgen::miner_script(svc));
    }
    for site in &world.sites {
        let mut first_party = String::new();
        scriptgen::first_party_script(&mut first_party, &site.domain, 2, 1);
        sources.push(first_party);
        sources.push(scriptgen::decoy_canvas_script(&site.domain, site.https));
        sources.push(scriptgen::first_party_canvas_script(
            &site.domain,
            site.https,
        ));
    }
    for src in &sources {
        let parsed = Parsed::parse(src).expect("generated scripts parse");
        assert!(
            parsed.agree_at(DEFAULT_BUDGET),
            "a generated script exhausts the budget:\n{src}"
        );
    }
    // Scripts that differ only in names and numbers take the same path
    // through both engines, so one script of each shape is swept.
    let shape = |s: &String| s.replace(|c: char| c.is_ascii_alphanumeric(), "");
    sources.sort_by_key(shape);
    sources.dedup_by_key(|s| shape(s));
    assert!(sources.len() > 30, "{} script shapes", sources.len());
    for src in &sources {
        assert_engines_agree(src, DEFAULT_BUDGET);
    }
}
