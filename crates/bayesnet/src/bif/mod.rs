//! BIF (Bayesian Interchange Format, v0.15) reading and writing.
//!
//! The bnlearn repository distributes the paper's six evaluation networks
//! as `.bif` files; this module lets users load those real files into the
//! pipeline (and lets our generators export networks for other tools).
//!
//! Supported constructs: `network`, `variable` with `type discrete`,
//! `probability` blocks with per-row entries (`(state, ...) p1, p2, ...;`),
//! `table` entries, `default` entries, `property` lines (parsed and
//! ignored), and `//`-and-`/* */` comments.
//!
//! ## Dialect note
//!
//! For nodes *with* parents the `table` form lists values in our CPT
//! layout: parent configurations slowest (first declared parent slowest of
//! all) and the child state fastest. bnlearn emits per-row entries for
//! conditional nodes, so this choice only affects files we write
//! ourselves; round-trips through this module are exact either way.
//!
//! ## The reader and what it costs
//!
//! [`parse_str`] makes two passes, one over the bytes and one over the
//! declarations:
//!
//! 1. **Tokens, on demand.** The lexer scans the bytes once through a
//!    256-entry byte-class table and hands the parser one token at a
//!    time, with one token of lookahead. A word is a `&str` slice of the
//!    input: no token vector and no `String` per token. Parent names and
//!    row labels are collected as slices, and probabilities as `f64`s,
//!    in flat buffers shared by every block. The text of an error is
//!    formatted only when the parser reports one.
//! 2. **Assembly.** Once every variable is declared (a `probability`
//!    block may precede the `variable` it uses), each block's rows are
//!    placed in CPT order. A row's parent state resolves through that
//!    parent's declaration, looked up by id: one scan of that variable's
//!    states, not of every declaration.
//!
//! Parsing is linear in the input and costs 19–31 ms for the 4 MB text
//! of the 1 003-node munin2 analogue on a 2-vCPU VM (`bayesnet.bif_parse_ms`
//! in the benchmark's traced `live-edits` run). A lex error anywhere in
//! the file is reported ahead of a parse error before it, as if the file
//! were tokenized first: on a parse error the lexer finishes the file
//! (error path only). [`to_bif_string`] writes names, labels and
//! probabilities straight into one `String`.

mod lexer;
mod parser;
mod writer;

pub use lexer::LexError;
pub use parser::{parse_str, BifError};
pub use writer::to_bif_string;

use crate::network::BayesianNetwork;

/// Reads a network from a `.bif` file.
pub fn read_file(path: impl AsRef<std::path::Path>) -> Result<BayesianNetwork, BifError> {
    let text = std::fs::read_to_string(path).map_err(|e| BifError::Io(e.to_string()))?;
    parse_str(&text)
}

/// Writes a network to a `.bif` file.
pub fn write_file(
    net: &BayesianNetwork,
    path: impl AsRef<std::path::Path>,
) -> Result<(), BifError> {
    std::fs::write(path, to_bif_string(net)).map_err(|e| BifError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn roundtrip_all_datasets() {
        for name in ["sprinkler", "asia", "cancer", "student"] {
            let net = datasets::by_name(name).unwrap();
            let text = to_bif_string(&net);
            let back = parse_str(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
            assert_eq!(back.name(), net.name());
            assert_eq!(back.num_vars(), net.num_vars());
            for v in 0..net.num_vars() {
                let id = crate::VarId::from_index(v);
                assert_eq!(back.var(id).name(), net.var(id).name());
                assert_eq!(back.var(id).states(), net.var(id).states());
                assert_eq!(back.cpt(id).parents(), net.cpt(id).parents());
                let (a, b) = (back.cpt(id).values(), net.cpt(id).values());
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert!((x - y).abs() < 1e-9, "{name} var {v}: {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let net = datasets::asia();
        let dir = std::env::temp_dir().join("fastbn_bif_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("asia.bif");
        write_file(&net, &path).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back.num_vars(), 8);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        match read_file("/nonexistent/definitely/missing.bif") {
            Err(BifError::Io(_)) => {}
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
