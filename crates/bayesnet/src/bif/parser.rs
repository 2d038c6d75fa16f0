//! Recursive-descent parser for the BIF format.

use std::collections::HashMap;
use std::ops::Range;

use super::lexer::{LexError, Lexer, Token, TokenKind};
use crate::cpt::CptError;
use crate::network::{BayesianNetwork, NetworkBuilder, NetworkError};
use crate::variable::{VarId, Variable};

/// Parse/IO failures, with source line where applicable.
#[derive(Debug, Clone, PartialEq)]
pub enum BifError {
    /// Tokenizer failure.
    Lex(LexError),
    /// Filesystem failure (message of the underlying `io::Error`).
    Io(String),
    /// Unexpected token.
    Unexpected {
        /// Source line.
        line: usize,
        /// Human description of what the parser wanted.
        expected: String,
        /// What it found.
        got: String,
    },
    /// Input ended too early.
    UnexpectedEof {
        /// What the parser wanted next.
        expected: String,
    },
    /// A probability block references an undeclared variable.
    UnknownVariable {
        /// Source line.
        line: usize,
        /// The name that failed to resolve.
        name: String,
    },
    /// A row lists a state name that the variable does not have.
    UnknownState {
        /// Source line.
        line: usize,
        /// Variable whose state failed to resolve.
        var: String,
        /// The unresolved state name.
        state: String,
    },
    /// A word failed to parse as a probability.
    BadNumber {
        /// Source line.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A row has the wrong number of probabilities.
    WrongRowLength {
        /// Source line.
        line: usize,
        /// Variable being defined.
        var: String,
        /// Values expected (child cardinality).
        expected: usize,
        /// Values found.
        got: usize,
    },
    /// Some parent configurations were never assigned probabilities.
    MissingRows {
        /// Variable being defined.
        var: String,
        /// How many rows are missing.
        missing: usize,
    },
    /// Two `probability` blocks for the same variable.
    DuplicateProbability {
        /// Source line of the second block.
        line: usize,
        /// The variable.
        var: String,
    },
    /// A probability block's values do not form a valid CPT (a row that
    /// does not sum to 1, a negative or non-finite value, a variable
    /// listed twice).
    InvalidCpt {
        /// Source line of the block.
        line: usize,
        /// Variable being defined.
        var: String,
        /// What the CPT check found.
        error: CptError,
    },
    /// Final network assembly failed (duplicate names, cycles, ...).
    Network(NetworkError),
}

impl std::fmt::Display for BifError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BifError::Lex(e) => write!(f, "lex error: {e}"),
            BifError::Io(e) => write!(f, "io error: {e}"),
            BifError::Unexpected {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected}, got {got:?}"),
            BifError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of file, expected {expected}")
            }
            BifError::UnknownVariable { line, name } => {
                write!(f, "line {line}: unknown variable {name:?}")
            }
            BifError::UnknownState { line, var, state } => {
                write!(f, "line {line}: variable {var:?} has no state {state:?}")
            }
            BifError::BadNumber { line, text } => {
                write!(f, "line {line}: {text:?} is not a number")
            }
            BifError::WrongRowLength {
                line,
                var,
                expected,
                got,
            } => write!(
                f,
                "line {line}: row for {var:?} has {got} values, expected {expected}"
            ),
            BifError::MissingRows { var, missing } => {
                write!(
                    f,
                    "{var:?}: {missing} parent configuration(s) have no probabilities"
                )
            }
            BifError::DuplicateProbability { line, var } => {
                write!(f, "line {line}: duplicate probability block for {var:?}")
            }
            BifError::InvalidCpt { line, var, error } => {
                write!(f, "line {line}: CPT of {var:?}: {error}")
            }
            BifError::Network(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for BifError {}

impl From<LexError> for BifError {
    fn from(e: LexError) -> Self {
        BifError::Lex(e)
    }
}

impl From<NetworkError> for BifError {
    fn from(e: NetworkError) -> Self {
        BifError::Network(e)
    }
}

/// What the parser wanted next; formatted only when it reports an error.
#[derive(Clone, Copy)]
enum Expected {
    Text(&'static str),
    Keyword(&'static str),
    Punct(u8),
}

impl Expected {
    fn describe(self) -> String {
        match self {
            Expected::Text(text) => text.to_string(),
            Expected::Keyword(kw) => format!("keyword {kw:?}"),
            Expected::Punct(p) => format!("{:?}", p as char),
        }
    }
}

struct VarDecl<'a> {
    name: &'a str,
    states: Vec<&'a str>,
    /// Source line of the name.
    line: usize,
}

/// A `probability` block. Names and values live in the parser's flat
/// buffers; the ranges index them.
struct ProbDecl<'a> {
    child: &'a str,
    /// Parent names, in `Parser::words`.
    parents: Range<usize>,
    /// The last `table` statement's values, in `Parser::numbers`.
    table: Option<Range<usize>>,
    /// The last `default` statement's values, in `Parser::numbers`.
    default: Option<Range<usize>>,
    /// The row entries, in `Parser::rows`.
    rows: Range<usize>,
    line: usize,
}

/// One `(s1, s2) p1, p2;` entry.
struct Row {
    /// Parent state names, in `Parser::words`.
    labels: Range<usize>,
    /// Probabilities, in `Parser::numbers`.
    values: Range<usize>,
    line: usize,
}

/// Recursive descent over on-demand tokens with one token of lookahead.
struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token, already lexed; `None` at the end of the input.
    look: Option<Token<'a>>,
    /// Parent names and row labels of every block.
    words: Vec<&'a str>,
    /// Probabilities of every block.
    numbers: Vec<f64>,
    rows: Vec<Row>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Result<Self, LexError> {
        let mut lexer = Lexer::new(input);
        let look = lexer.next_token()?;
        Ok(Parser {
            lexer,
            look,
            words: Vec::new(),
            numbers: Vec::new(),
            rows: Vec::new(),
        })
    }

    fn advance(&mut self) -> Result<(), LexError> {
        self.look = self.lexer.next_token()?;
        Ok(())
    }

    fn next(&mut self, expected: Expected) -> Result<Token<'a>, BifError> {
        let tok = self.look.ok_or_else(|| BifError::UnexpectedEof {
            expected: expected.describe(),
        })?;
        self.advance()?;
        Ok(tok)
    }

    fn expect_word(&mut self, expected: Expected) -> Result<(&'a str, usize), BifError> {
        let tok = self.next(expected)?;
        match tok.kind {
            TokenKind::Word(w) => Ok((w, tok.line)),
            other => Err(BifError::Unexpected {
                line: tok.line,
                expected: expected.describe(),
                got: other.to_string(),
            }),
        }
    }

    fn expect_keyword(&mut self, kw: &'static str) -> Result<usize, BifError> {
        let expected = Expected::Keyword(kw);
        let (w, line) = self.expect_word(expected)?;
        if w == kw {
            Ok(line)
        } else {
            Err(BifError::Unexpected {
                line,
                expected: expected.describe(),
                got: w.to_string(),
            })
        }
    }

    fn expect_punct(&mut self, p: u8) -> Result<usize, BifError> {
        let expected = Expected::Punct(p);
        let tok = self.next(expected)?;
        match tok.kind {
            TokenKind::Punct(c) if c == p => Ok(tok.line),
            other => Err(BifError::Unexpected {
                line: tok.line,
                expected: expected.describe(),
                got: other.to_string(),
            }),
        }
    }

    fn at_punct(&self, p: u8) -> bool {
        matches!(self.look, Some(Token { kind: TokenKind::Punct(c), .. }) if c == p)
    }

    fn eat_punct(&mut self, p: u8) -> Result<bool, BifError> {
        let at = self.at_punct(p);
        if at {
            self.advance()?;
        }
        Ok(at)
    }

    /// Skips the remainder of a `property` declaration (until `;`).
    fn skip_property(&mut self) -> Result<(), BifError> {
        loop {
            let tok = self.next(Expected::Text("';' ending property"))?;
            if tok.kind == TokenKind::Punct(b';') {
                return Ok(());
            }
        }
    }

    /// Reads comma/space separated probabilities through the closing `;`
    /// into `numbers`; returns where they are.
    fn read_numbers_until_semi(&mut self) -> Result<Range<usize>, BifError> {
        let start = self.numbers.len();
        loop {
            if self.eat_punct(b';')? {
                return Ok(start..self.numbers.len());
            }
            if self.eat_punct(b',')? {
                continue;
            }
            let (word, line) = self.expect_word(Expected::Text("a probability"))?;
            let v: f64 = word.parse().map_err(|_| BifError::BadNumber {
                line,
                text: word.to_string(),
            })?;
            self.numbers.push(v);
        }
    }

    fn parse_network_decl(&mut self) -> Result<String, BifError> {
        self.expect_keyword("network")?;
        // Network name may be several words (quoted names collapse to one);
        // read words until '{'.
        let mut name_parts = Vec::new();
        while !self.at_punct(b'{') {
            let (w, _) = self.expect_word(Expected::Text("network name or '{'"))?;
            name_parts.push(w);
        }
        self.expect_punct(b'{')?;
        while !self.eat_punct(b'}')? {
            let (w, line) = self.expect_word(Expected::Text("property or '}'"))?;
            if w == "property" {
                self.skip_property()?;
            } else {
                return Err(BifError::Unexpected {
                    line,
                    expected: "property or '}'".into(),
                    got: w.to_string(),
                });
            }
        }
        Ok(if name_parts.is_empty() {
            "network".to_string()
        } else {
            name_parts.join(" ")
        })
    }

    fn parse_variable_decl(&mut self) -> Result<VarDecl<'a>, BifError> {
        let (name, name_line) = self.expect_word(Expected::Text("variable name"))?;
        self.expect_punct(b'{')?;
        let mut states = Vec::new();
        while !self.eat_punct(b'}')? {
            let (w, line) = self.expect_word(Expected::Text("'type' or 'property'"))?;
            match w {
                "property" => self.skip_property()?,
                "type" => {
                    self.expect_keyword("discrete")?;
                    self.expect_punct(b'[')?;
                    let (count_word, cline) = self.expect_word(Expected::Text("state count"))?;
                    let declared: usize = count_word.parse().map_err(|_| BifError::BadNumber {
                        line: cline,
                        text: count_word.to_string(),
                    })?;
                    self.expect_punct(b']')?;
                    self.expect_punct(b'{')?;
                    while !self.at_punct(b'}') {
                        if self.eat_punct(b',')? {
                            continue;
                        }
                        let (state, _) = self.expect_word(Expected::Text("state name"))?;
                        states.push(state);
                    }
                    self.expect_punct(b'}')?;
                    self.eat_punct(b';')?;
                    if states.len() != declared {
                        return Err(BifError::Unexpected {
                            line: cline,
                            expected: format!("{declared} state names"),
                            got: format!("{} state names", states.len()),
                        });
                    }
                }
                other => {
                    return Err(BifError::Unexpected {
                        line,
                        expected: "'type' or 'property'".into(),
                        got: other.to_string(),
                    })
                }
            }
        }
        Ok(VarDecl {
            name,
            states,
            line: name_line,
        })
    }

    fn parse_probability_decl(&mut self) -> Result<ProbDecl<'a>, BifError> {
        let line = self.expect_punct(b'(')?;
        let (child, _) = self.expect_word(Expected::Text("child variable name"))?;
        let parents_start = self.words.len();
        if self.eat_punct(b'|')? {
            loop {
                let (p, _) = self.expect_word(Expected::Text("parent variable name"))?;
                self.words.push(p);
                if !self.eat_punct(b',')? {
                    break;
                }
            }
        }
        let parents = parents_start..self.words.len();
        self.expect_punct(b')')?;
        self.expect_punct(b'{')?;

        let mut table = None;
        let mut default = None;
        let rows_start = self.rows.len();
        while !self.eat_punct(b'}')? {
            if self.at_punct(b'(') {
                // Row entry: ( s1, s2 ) p1, p2, ... ;
                let rline = self.expect_punct(b'(')?;
                let labels_start = self.words.len();
                while !self.at_punct(b')') {
                    if self.eat_punct(b',')? {
                        continue;
                    }
                    let (s, _) = self.expect_word(Expected::Text("parent state name"))?;
                    self.words.push(s);
                }
                let labels = labels_start..self.words.len();
                self.expect_punct(b')')?;
                let values = self.read_numbers_until_semi()?;
                self.rows.push(Row {
                    labels,
                    values,
                    line: rline,
                });
            } else {
                let (w, wline) =
                    self.expect_word(Expected::Text("'table', 'default', 'property' or a row"))?;
                match w {
                    "property" => self.skip_property()?,
                    "table" => table = Some(self.read_numbers_until_semi()?),
                    "default" => default = Some(self.read_numbers_until_semi()?),
                    other => {
                        return Err(BifError::Unexpected {
                            line: wline,
                            expected: "'table', 'default', 'property' or '('".into(),
                            got: other.to_string(),
                        })
                    }
                }
            }
        }
        Ok(ProbDecl {
            child,
            parents,
            table,
            default,
            rows: rows_start..self.rows.len(),
            line,
        })
    }

    /// The token pass: the network name and every declaration, in order.
    fn parse_decls(&mut self) -> Result<(String, Vec<VarDecl<'a>>, Vec<ProbDecl<'a>>), BifError> {
        let name = self.parse_network_decl()?;
        let mut var_decls = Vec::new();
        let mut prob_decls = Vec::new();
        while self.look.is_some() {
            let (kw, line) = self.expect_word(Expected::Text("'variable' or 'probability'"))?;
            match kw {
                "variable" => var_decls.push(self.parse_variable_decl()?),
                "probability" => prob_decls.push(self.parse_probability_decl()?),
                other => {
                    return Err(BifError::Unexpected {
                        line,
                        expected: "'variable' or 'probability'".into(),
                        got: other.to_string(),
                    })
                }
            }
        }
        Ok((name, var_decls, prob_decls))
    }

    /// The values of `decl`'s CPT in our layout: parent configurations
    /// slowest (first parent slowest of all), child state fastest.
    fn cpt_values(
        &self,
        decl: &ProbDecl<'a>,
        var_decls: &[VarDecl<'a>],
        parent_ids: &[VarId],
        child_card: usize,
    ) -> Result<Vec<f64>, BifError> {
        // Sizes come from the input: a product that overflows, or a table
        // the allocator refuses, is an error, not a panic.
        let too_large = || BifError::Unexpected {
            line: decl.line,
            expected: "a CPT that fits in memory".into(),
            got: format!("a larger one over {} parents", parent_ids.len()),
        };
        let n_rows = parent_ids
            .iter()
            .try_fold(1usize, |n, p| {
                n.checked_mul(var_decls[p.index()].states.len())
            })
            .ok_or_else(too_large)?;
        let expected_len = n_rows.checked_mul(child_card).ok_or_else(too_large)?;
        let wrong_length = |line, expected, got| BifError::WrongRowLength {
            line,
            var: decl.child.to_string(),
            expected,
            got,
        };
        if let Some(table) = &decl.table {
            let t = &self.numbers[table.clone()];
            if t.len() != expected_len {
                return Err(wrong_length(decl.line, expected_len, t.len()));
            }
            return Ok(t.to_vec());
        }
        let mut values = Vec::new();
        values
            .try_reserve_exact(expected_len)
            .map_err(|_| too_large())?;
        values.resize(expected_len, 0.0);
        let mut filled = vec![decl.default.is_some(); n_rows];
        if let Some(default) = &decl.default {
            let d = &self.numbers[default.clone()];
            if d.len() != child_card {
                return Err(wrong_length(decl.line, child_card, d.len()));
            }
            for row in values.chunks_exact_mut(child_card) {
                row.copy_from_slice(d);
            }
        }
        let parent_names = &self.words[decl.parents.clone()];
        for row in &self.rows[decl.rows.clone()] {
            let labels = &self.words[row.labels.clone()];
            if labels.len() != parent_names.len() {
                return Err(BifError::Unexpected {
                    line: row.line,
                    expected: format!("{} parent states", parent_names.len()),
                    got: format!("{} parent states", labels.len()),
                });
            }
            let row_values = &self.numbers[row.values.clone()];
            if row_values.len() != child_card {
                return Err(wrong_length(row.line, child_card, row_values.len()));
            }
            let mut index = 0usize;
            for ((pname, label), p) in parent_names.iter().zip(labels).zip(parent_ids) {
                let states = &var_decls[p.index()].states;
                let state = states.iter().position(|s| s == label).ok_or_else(|| {
                    BifError::UnknownState {
                        line: row.line,
                        var: pname.to_string(),
                        state: label.to_string(),
                    }
                })?;
                index = index * states.len() + state;
            }
            values[index * child_card..(index + 1) * child_card].copy_from_slice(row_values);
            filled[index] = true;
        }
        let missing = filled.iter().filter(|&&f| !f).count();
        if missing > 0 {
            return Err(BifError::MissingRows {
                var: decl.child.to_string(),
                missing,
            });
        }
        Ok(values)
    }
}

/// Parses BIF text into a validated [`BayesianNetwork`].
pub fn parse_str(input: &str) -> Result<BayesianNetwork, BifError> {
    let mut parser = Parser::new(input)?;
    let (name, var_decls, prob_decls) = match parser.parse_decls() {
        Ok(decls) => decls,
        Err(e @ BifError::Lex(_)) => return Err(e),
        Err(e) => return Err(parser.lexer.first_error().map_or(e, BifError::Lex)),
    };

    let mut builder = NetworkBuilder::new().named(name);
    let mut by_name = HashMap::with_capacity(var_decls.len());
    for decl in &var_decls {
        if decl.states.is_empty() {
            return Err(BifError::Unexpected {
                line: decl.line,
                expected: "at least one state name".into(),
                got: "0 state names".into(),
            });
        }
        let states = decl.states.iter().map(|s| s.to_string()).collect();
        let id = builder.add_variable(Variable::new(decl.name, states));
        by_name.insert(decl.name, id);
    }
    let lookup = |name: &str, line: usize| {
        by_name
            .get(name)
            .copied()
            .ok_or_else(|| BifError::UnknownVariable {
                line,
                name: name.to_string(),
            })
    };

    let mut has_cpt = vec![false; var_decls.len()];
    for decl in &prob_decls {
        let child = lookup(decl.child, decl.line)?;
        if std::mem::replace(&mut has_cpt[child.index()], true) {
            return Err(BifError::DuplicateProbability {
                line: decl.line,
                var: decl.child.to_string(),
            });
        }
        let parent_ids = parser.words[decl.parents.clone()]
            .iter()
            .map(|p| lookup(p, decl.line))
            .collect::<Result<Vec<_>, _>>()?;
        let child_card = var_decls[child.index()].states.len();
        let values = parser.cpt_values(decl, &var_decls, &parent_ids, child_card)?;
        builder
            .set_cpt(child, parent_ids, values)
            .map_err(|e| match e {
                NetworkError::Cpt(_, error) => BifError::InvalidCpt {
                    line: decl.line,
                    var: decl.child.to_string(),
                    error,
                },
                other => BifError::Network(other),
            })?;
    }
    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINI: &str = r#"
network mini {
  property note "hand written";
}
variable A {
  type discrete [ 2 ] { yes, no };
}
variable B {
  type discrete [ 3 ] { low, mid, high };
}
probability ( A ) {
  table 0.3, 0.7;
}
probability ( B | A ) {
  (yes) 0.2, 0.3, 0.5;
  (no)  0.6, 0.3, 0.1;
}
"#;

    #[test]
    fn parses_a_small_network() {
        let net = parse_str(MINI).unwrap();
        assert_eq!(net.name(), "mini");
        assert_eq!(net.num_vars(), 2);
        let b = net.var_id("B").unwrap();
        assert_eq!(net.cardinality(b), 3);
        let a = net.var_id("A").unwrap();
        assert_eq!(net.cpt(b).parents(), &[a]);
        assert!((net.cpt(b).probability(2, &[0]) - 0.5).abs() < 1e-12);
        assert!((net.cpt(b).probability(0, &[1]) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn default_rows_fill_unlisted_configs() {
        let text = r#"
network d { }
variable P { type discrete [ 2 ] { a, b }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( P ) { table 0.5, 0.5; }
probability ( C | P ) {
  default 0.9, 0.1;
  (b) 0.4, 0.6;
}
"#;
        let net = parse_str(text).unwrap();
        let c = net.var_id("C").unwrap();
        assert!((net.cpt(c).probability(0, &[0]) - 0.9).abs() < 1e-12);
        assert!((net.cpt(c).probability(0, &[1]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn two_parent_rows_use_first_parent_slowest() {
        let text = r#"
network t { }
variable P1 { type discrete [ 2 ] { p1a, p1b }; }
variable P2 { type discrete [ 2 ] { p2a, p2b }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( P1 ) { table 0.5, 0.5; }
probability ( P2 ) { table 0.5, 0.5; }
probability ( C | P1, P2 ) {
  (p1a, p2a) 0.1, 0.9;
  (p1a, p2b) 0.2, 0.8;
  (p1b, p2a) 0.3, 0.7;
  (p1b, p2b) 0.4, 0.6;
}
"#;
        let net = parse_str(text).unwrap();
        let c = net.var_id("C").unwrap();
        assert!((net.cpt(c).probability(0, &[0, 1]) - 0.2).abs() < 1e-12);
        assert!((net.cpt(c).probability(0, &[1, 0]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn missing_rows_are_reported() {
        let text = r#"
network m { }
variable P { type discrete [ 2 ] { a, b }; }
variable C { type discrete [ 2 ] { x, y }; }
probability ( P ) { table 0.5, 0.5; }
probability ( C | P ) { (a) 0.5, 0.5; }
"#;
        match parse_str(text).unwrap_err() {
            BifError::MissingRows { var, missing } => {
                assert_eq!(var, "C");
                assert_eq!(missing, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_state_is_reported_with_line() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nvariable B { type discrete [ 2 ] { t, f }; }\nprobability ( A ) { table 0.5, 0.5; }\nprobability ( B | A ) {\n  (maybe) 0.5, 0.5;\n  (no) 0.5, 0.5;\n}";
        match parse_str(text).unwrap_err() {
            BifError::UnknownState { line, var, state } => {
                assert_eq!((line, var.as_str(), state.as_str()), (6, "A", "maybe"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_variable_is_reported() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nprobability ( A ) { table 0.5, 0.5; }\nprobability ( Ghost ) { table 1.0; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::UnknownVariable { name, .. } if name == "Ghost"
        ));
    }

    #[test]
    fn duplicate_probability_block_rejected() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nprobability ( A ) { table 0.5, 0.5; }\nprobability ( A ) { table 0.4, 0.6; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::DuplicateProbability { var, .. } if var == "A"
        ));
    }

    #[test]
    fn state_count_mismatch_rejected() {
        let text = "network x { }\nvariable A { type discrete [ 3 ] { yes, no }; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::Unexpected { .. }
        ));
    }

    #[test]
    fn bad_cpt_values_name_the_variable_and_the_block_line() {
        for (values, check) in [
            ("0.5, 0.6", "sums to 1.1"),
            ("-0.5, 1.5", "-0.5"),
            ("nan, 0.5", "NaN"),
            ("1e999, 0", "inf"),
        ] {
            let text = format!(
                "network x {{ }}\nvariable A {{ type discrete [ 2 ] {{ yes, no }}; }}\n\nprobability ( A ) {{\n  table {values};\n}}"
            );
            let err = parse_str(&text).unwrap_err();
            match &err {
                BifError::InvalidCpt { line, var, .. } => {
                    assert_eq!((*line, var.as_str()), (4, "A"), "{values}");
                }
                other => panic!("{values}: unexpected {other:?}"),
            }
            let message = err.to_string();
            assert!(
                message.starts_with("line 4: CPT of \"A\"") && message.contains(check),
                "{values}: {message}"
            );
        }
    }

    #[test]
    fn nan_in_a_row_is_a_bad_cpt_not_a_missing_row() {
        let text = "network x { }\nvariable P { type discrete [ 2 ] { a, b }; }\nvariable C { type discrete [ 2 ] { x, y }; }\nprobability ( P ) { table 0.5, 0.5; }\nprobability ( C | P ) {\n  (a) nan, nan;\n  (b) 0.5, 0.5;\n}";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::InvalidCpt { line: 5, var, .. } if var == "C"
        ));
    }

    #[test]
    fn variable_without_states_is_an_error() {
        for text in [
            "network x { }\nvariable A { type discrete [ 0 ] { }; }",
            "network x { }\n\nvariable A { property p; }",
        ] {
            let line = text.lines().count();
            match parse_str(text).unwrap_err() {
                BifError::Unexpected { line: l, got, .. } => {
                    assert_eq!((l, got.as_str()), (line, "0 state names"), "{text}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn lex_error_anywhere_outranks_an_earlier_parse_error() {
        let text = "network x { }\nbogus\nvariable A /* never closed";
        assert_eq!(
            parse_str(text).unwrap_err(),
            BifError::Lex(LexError::UnterminatedComment { line: 3 })
        );
    }

    #[test]
    fn cpt_too_large_to_allocate_is_an_error() {
        // 2^61 entries (2^64 bytes) cannot be reserved; 2^65 overflow usize.
        for parents in [60, 64] {
            let mut text =
                String::from("network big { }\nvariable C { type discrete [ 2 ] { x, y }; }\n");
            let names: Vec<String> = (0..parents).map(|i| format!("P{i}")).collect();
            for name in &names {
                text += &format!("variable {name} {{ type discrete [ 2 ] {{ a, b }}; }}\n");
                text += &format!("probability ( {name} ) {{ table 0.5, 0.5; }}\n");
            }
            text += &format!(
                "probability ( C | {} ) {{\n  default 0.5, 0.5;\n}}\n",
                names.join(", ")
            );
            match parse_str(&text).unwrap_err() {
                BifError::Unexpected { line, expected, .. } => {
                    assert_eq!(
                        (line, expected.as_str()),
                        (3 + 2 * parents, "a CPT that fits in memory")
                    );
                }
                other => panic!("{parents} parents: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn table_length_mismatch_rejected() {
        let text = "network x { }\nvariable A { type discrete [ 2 ] { yes, no }; }\nprobability ( A ) { table 0.5, 0.3, 0.2; }";
        assert!(matches!(
            parse_str(text).unwrap_err(),
            BifError::WrongRowLength { .. }
        ));
    }
}
