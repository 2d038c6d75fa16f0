//! BIF serialization.

use std::fmt::Write as _;

use super::lexer::is_bare_word;
use crate::network::BayesianNetwork;
use crate::variable::VarId;

/// Appends `word`, quoted unless it reads back bare.
fn push_word(out: &mut String, word: &str) {
    if is_bare_word(word) {
        out.push_str(word);
    } else {
        out.push('"');
        out.push_str(word);
        out.push('"');
    }
}

/// Appends a probability losslessly: Rust's `Display` for `f64` emits the
/// shortest decimal string that round-trips to the same bits.
fn push_prob(out: &mut String, p: f64) {
    let _ = write!(out, "{p}");
}

/// Appends `items` separated by `", "`.
fn push_list<T>(out: &mut String, items: impl IntoIterator<Item = T>, push: fn(&mut String, T)) {
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push(out, item);
    }
}

/// Serializes a network to BIF text (see the module docs for the dialect).
pub fn to_bif_string(net: &BayesianNetwork) -> String {
    let mut out = String::new();
    out.push_str("network ");
    push_word(&mut out, net.name());
    out.push_str(" {\n}\n");

    for var in net.variables() {
        out.push_str("variable ");
        push_word(&mut out, var.name());
        let _ = write!(out, " {{\n  type discrete [ {} ] {{ ", var.cardinality());
        push_list(&mut out, var.states().iter().map(String::as_str), push_word);
        out.push_str(" };\n}\n");
    }

    for v in 0..net.num_vars() {
        let id = VarId::from_index(v);
        let cpt = net.cpt(id);
        out.push_str("probability ( ");
        push_word(&mut out, net.var(id).name());
        if cpt.parents().is_empty() {
            out.push_str(" ) {\n  table ");
            push_list(&mut out, cpt.row(0).iter().copied(), push_prob);
            out.push_str(";\n}\n");
            continue;
        }
        out.push_str(" | ");
        push_list(
            &mut out,
            cpt.parents().iter().map(|p| net.var(*p).name()),
            push_word,
        );
        out.push_str(" ) {\n");
        let cards = cpt.parent_cardinalities();
        let mut config = vec![0usize; cards.len()];
        for row in 0..cpt.num_rows() {
            out.push_str("  (");
            push_list(
                &mut out,
                config
                    .iter()
                    .zip(cpt.parents())
                    .map(|(&s, p)| net.var(*p).state_name(s)),
                push_word,
            );
            out.push_str(") ");
            push_list(&mut out, cpt.row(row).iter().copied(), push_prob);
            out.push_str(";\n");
            // Mixed-radix increment, last parent fastest (matches
            // `Cpt::row_index`).
            for i in (0..config.len()).rev() {
                config[i] += 1;
                if config[i] < cards[i] {
                    break;
                }
                config[i] = 0;
            }
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    fn fmt_prob(p: f64) -> String {
        let mut out = String::new();
        push_prob(&mut out, p);
        out
    }

    fn quoted(word: &str) -> String {
        let mut out = String::new();
        push_word(&mut out, word);
        out
    }

    #[test]
    fn fmt_prob_is_lossless_and_compact() {
        assert_eq!(fmt_prob(0.5), "0.5");
        assert_eq!(fmt_prob(0.0), "0");
        assert_eq!(fmt_prob(1.0), "1");
        let odd = 1.0 / 3.0;
        let text = fmt_prob(odd);
        assert_eq!(text.parse::<f64>().unwrap(), odd);
    }

    #[test]
    fn quoting_rules() {
        assert_eq!(quoted("plain_name"), "plain_name");
        assert_eq!(quoted("has space"), "\"has space\"");
        assert_eq!(quoted("a,b"), "\"a,b\"");
        // A comment opener at the start would not read back as a word.
        assert_eq!(quoted("//x"), "\"//x\"");
        assert_eq!(quoted("a//x"), "a//x");
    }

    #[test]
    fn output_contains_expected_blocks() {
        let text = to_bif_string(&datasets::sprinkler());
        assert!(text.contains("network sprinkler {"));
        assert!(text.contains("variable Cloudy {"));
        assert!(text.contains("probability ( WetGrass | Sprinkler, Rain ) {"));
        assert!(text.contains("type discrete [ 2 ] { true, false };"));
    }

    #[test]
    fn root_nodes_use_table_form() {
        let text = to_bif_string(&datasets::cancer());
        assert!(text.contains("probability ( Pollution ) {\n  table 0.9, 0.1;"));
    }
}
