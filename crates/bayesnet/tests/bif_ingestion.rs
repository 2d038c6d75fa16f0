//! BIF ingestion under adversarial input (seeded, no proptest in the
//! build environment): byte mutations and truncations of real BIF text
//! return a network or a typed `BifError` and never panic, and parse →
//! print → parse is a fixed point on every dataset and on every paper
//! analogue (a superset of the networks the acceptance benchmark loads).

use std::panic::{catch_unwind, AssertUnwindSafe};

use fastbn_bayesnet::bif::{parse_str, to_bif_string};
use fastbn_bayesnet::{analogues, datasets, BayesianNetwork, VarId};

/// Replacement bytes: delimiters, quote, space, comment characters,
/// digits and the letters of `nan`, `inf`-like words and exponents.
const REPLACEMENTS: &[u8] = b"{}()[];,|\" /*0123456789.-enax";

fn hailfinder() -> BayesianNetwork {
    analogues::by_name("hailfinder")
        .expect("hailfinder analogue")
        .build()
}

/// Parses `input`, turning a panic into a test failure that names the
/// input. Returns whether it parsed.
fn parses_without_panic(input: &[u8], what: &dyn Fn() -> String) -> bool {
    // Every replacement byte is ASCII, so an edit can only break UTF-8
    // by cutting a multi-byte char, which the generated text has none of.
    let text = std::str::from_utf8(input).expect("ASCII edits keep UTF-8");
    match catch_unwind(AssertUnwindSafe(|| parse_str(text))) {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("parse_str panicked on {}", what()),
    }
}

/// Positions `0, stride, 2·stride, …` of `text`, each replaced by every
/// byte of [`REPLACEMENTS`], deleted, and truncated at. Returns
/// (inputs, networks).
fn sweep(name: &str, text: &str, stride: usize) -> (usize, usize) {
    let bytes = text.as_bytes();
    let (mut inputs, mut networks) = (0, 0);
    let mut count = |ok: bool| {
        inputs += 1;
        networks += usize::from(ok);
    };
    let mut edited = bytes.to_vec();
    for pos in (0..bytes.len()).step_by(stride) {
        for &b in REPLACEMENTS {
            edited[pos] = b;
            count(parses_without_panic(&edited, &|| {
                format!("{name} with byte {pos} replaced by {:?}", b as char)
            }));
        }
        edited[pos] = bytes[pos];
        let mut deleted = bytes.to_vec();
        deleted.remove(pos);
        count(parses_without_panic(&deleted, &|| {
            format!("{name} with byte {pos} deleted")
        }));
        count(parses_without_panic(&bytes[..pos], &|| {
            format!("{name} truncated at byte {pos}")
        }));
    }
    (inputs, networks)
}

/// Positions swept over hailfinder's 77 kB text. Each input is parsed to
/// its end (or lexed to its end after an error), so the release build
/// (CI's "Ingestion smoke" step) takes 3 000; the unoptimised build,
/// about ten times slower per byte, a tenth of them.
const HAILFINDER_POSITIONS: usize = if cfg!(debug_assertions) { 300 } else { 3_000 };

/// Both outcomes occur: digit edits mostly still parse (or fail the CPT
/// check), structural edits fail.
fn assert_mixed((inputs, networks): (usize, usize)) {
    assert!(
        networks > 0 && networks < inputs,
        "{networks} networks of {inputs} inputs"
    );
}

#[test]
fn every_edit_of_asia_returns_a_network_or_an_error() {
    let asia = to_bif_string(&datasets::asia());
    assert_mixed(sweep("asia", &asia, 1));
}

#[test]
fn edits_spread_over_hailfinder_return_a_network_or_an_error() {
    let hail = to_bif_string(&hailfinder());
    let stride = hail.len() / HAILFINDER_POSITIONS;
    assert!(hail.len().div_ceil(stride) >= HAILFINDER_POSITIONS);
    assert_mixed(sweep("hailfinder", &hail, stride));
}

fn assert_same_network(a: &BayesianNetwork, b: &BayesianNetwork, what: &str) {
    assert_eq!(a.name(), b.name(), "{what}");
    assert_eq!(a.num_vars(), b.num_vars(), "{what}");
    for v in 0..a.num_vars() {
        let id = VarId::from_index(v);
        assert_eq!(a.var(id).name(), b.var(id).name(), "{what} var {v}");
        assert_eq!(a.var(id).states(), b.var(id).states(), "{what} var {v}");
        assert_eq!(a.cpt(id).parents(), b.cpt(id).parents(), "{what} var {v}");
        let bits = |net: &BayesianNetwork| -> Vec<u64> {
            net.cpt(id).values().iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(bits(a), bits(b), "{what} var {v}: CPT bits");
    }
}

#[test]
fn parse_print_parse_is_a_fixed_point() {
    let mut nets: Vec<(String, BayesianNetwork)> = ["sprinkler", "asia", "cancer", "student"]
        .into_iter()
        .map(|name| (name.to_string(), datasets::by_name(name).expect(name)))
        .collect();
    nets.extend(
        analogues::all()
            .iter()
            .map(|a| (a.name.to_string(), a.build())),
    );
    nets.extend(
        analogues::adaptivity()
            .into_iter()
            .map(|(name, net)| (name.to_string(), net)),
    );
    for (name, net) in nets {
        let text = to_bif_string(&net);
        let back = parse_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_network(&back, &net, &name);
        let again = to_bif_string(&back);
        assert!(again == text, "{name}: printed text changed on re-parse");
        assert_same_network(&parse_str(&again).expect("reparse"), &back, &name);
    }
}
