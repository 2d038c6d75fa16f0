//! Seeded input streams. `--seed` drives only what is in this file: the
//! evidence cases, the order they are drawn in, the query-mode mix and
//! the edit stream. The same seed gives the same inputs, bit for bit.

use fastbn::bayesnet::sampler::generate_cases;
use fastbn::{BayesianNetwork, Evidence, EvidenceDelta, Query, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of variables observed in every generated case (the paper's
/// Table-1 procedure).
const OBSERVED_FRACTION: f64 = 0.2;

/// SplitMix64 finaliser: derives independent sub-seeds from
/// `(seed, salt)`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes; the fingerprint of an input stream.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, salt))
}

/// `n` evidence cases sampled from the network's own joint (so each has
/// positive probability), 20 % of the variables observed.
pub fn cases(net: &BayesianNetwork, n: usize, seed: u64) -> Vec<Evidence> {
    generate_cases(net, n, OBSERVED_FRACTION, mix(seed, 0xCA5E))
        .into_iter()
        .map(|c| c.evidence)
        .collect()
}

/// All-marginals queries over a case pool, drawn uniformly: the op
/// stream of the from-scratch workloads.
pub struct CaseStream {
    pub queries: Vec<Query>,
    rng: StdRng,
}

impl CaseStream {
    pub fn new(net: &BayesianNetwork, pool: usize, seed: u64) -> CaseStream {
        CaseStream {
            queries: cases(net, pool, seed)
                .into_iter()
                .map(|e| Query::new().evidence(e))
                .collect(),
            rng: rng(seed, 1),
        }
    }

    /// Index of the next case.
    pub fn next_index(&mut self) -> usize {
        self.rng.gen_range(0..self.queries.len())
    }
}

/// The request kinds of `served-mix`, with their shares of the traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Marginals,
    Targeted,
    Virtual,
    Mpe,
    /// Deliberately malformed; the expected outcome is the typed error.
    Malformed,
}

impl Mode {
    pub const ALL: [Mode; 5] = [
        Mode::Marginals,
        Mode::Targeted,
        Mode::Virtual,
        Mode::Mpe,
        Mode::Malformed,
    ];

    /// 69 % all-marginals, 15 % targeted, 10 % virtual evidence, 5 % MPE,
    /// 1 % malformed.
    fn draw(u: f64) -> Mode {
        match u {
            u if u < 0.69 => Mode::Marginals,
            u if u < 0.84 => Mode::Targeted,
            u if u < 0.94 => Mode::Virtual,
            u if u < 0.99 => Mode::Mpe,
            _ => Mode::Malformed,
        }
    }
}

/// One model's share of the served traffic: a fixed table of queries,
/// one per (evidence set, mode), so a repeated (set, mode) is the same
/// cache key.
pub struct ModelTraffic {
    pub id: String,
    /// `templates[set][mode as usize]`.
    pub templates: Vec<[Query; 5]>,
    /// Cumulative Zipf(1.0) weights over the sets, or `None` for a
    /// uniform draw.
    zipf_cdf: Option<Vec<f64>>,
}

impl ModelTraffic {
    pub fn new(
        id: &str,
        net: &BayesianNetwork,
        sets: usize,
        zipf: bool,
        seed: u64,
    ) -> ModelTraffic {
        let mut rng = rng(seed, fnv(id.as_bytes()));
        let templates = cases(net, sets, mix(seed, fnv(id.as_bytes())))
            .into_iter()
            .enumerate()
            .map(|(set, evidence)| templates_for(net, evidence, set, &mut rng))
            .collect();
        let zipf_cdf = zipf.then(|| {
            let mut acc = 0.0;
            (1..=sets)
                .map(|k| {
                    acc += 1.0 / k as f64;
                    acc
                })
                .collect()
        });
        ModelTraffic {
            id: id.to_string(),
            templates,
            zipf_cdf,
        }
    }

    fn draw_set(&self, rng: &mut StdRng) -> usize {
        match &self.zipf_cdf {
            None => rng.gen_range(0..self.templates.len()),
            Some(cdf) => {
                let u = rng.gen::<f64>() * cdf[cdf.len() - 1];
                cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
            }
        }
    }
}

/// A strictly positive likelihood vector.
fn positive_likelihood(card: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..card).map(|_| 0.05 + rng.gen::<f64>()).collect()
}

/// The five queries of one evidence set. Every parameter beyond the
/// evidence (targets, likelihood vector, which malformation) is fixed
/// here, once, so the set's queries repeat exactly.
fn templates_for(
    net: &BayesianNetwork,
    evidence: Evidence,
    set: usize,
    rng: &mut StdRng,
) -> [Query; 5] {
    let free: Vec<VarId> = (0..net.num_vars())
        .map(VarId::from_index)
        .filter(|v| !evidence.contains(*v))
        .collect();
    let pick = |rng: &mut StdRng| free[rng.gen_range(0..free.len())];
    let base = Query::new().evidence(evidence.clone());
    let targets = [pick(rng), pick(rng), pick(rng)];
    let soft = pick(rng);
    let likelihood = positive_likelihood(net.cardinality(soft), rng);
    let malformed = if set.is_multiple_of(2) {
        // Rejected by validation, before any compute.
        let var = pick(rng);
        base.clone()
            .likelihood(var, vec![0.0; net.cardinality(var)])
    } else {
        // Well-formed, but contradicts a hard finding: found impossible
        // only after a full propagation.
        let (var, state) = evidence.iter().next().expect("cases observe 20 %");
        let mut against = vec![1.0; net.cardinality(var)];
        against[state] = 0.0;
        base.clone().likelihood(var, against)
    };
    [
        base.clone(),
        base.clone().targets(targets),
        base.clone().likelihood(soft, likelihood),
        base.mpe(),
        malformed,
    ]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub model: usize,
    pub set: usize,
    pub mode: Mode,
}

/// One client's request stream: model uniform, set per the model's
/// popularity law, mode per the fixed mix.
pub struct RequestStream {
    rng: StdRng,
}

impl RequestStream {
    pub fn new(seed: u64, client: usize) -> RequestStream {
        RequestStream {
            rng: rng(seed, 0xC11E_0000 + client as u64),
        }
    }

    pub fn next(&mut self, traffic: &[ModelTraffic]) -> Request {
        let model = self.rng.gen_range(0..traffic.len());
        let set = traffic[model].draw_set(&mut self.rng);
        let mode = Mode::draw(self.rng.gen::<f64>());
        Request { model, set, mode }
    }
}

/// Variables of the hot set that `live-edits` edits.
pub const HOT_SET: usize = 32;
/// Every this-many-th live op also reads the full posteriors.
pub const FULL_READ_EVERY: u64 = 16;

/// The edited variables and the watched one. Chosen from the network's
/// own spec seed, not from `--seed`: which cliques an edit dirties
/// decides how much work an op is, and that must not move between seeds.
pub struct HotSet {
    pub vars: Vec<VarId>,
    pub watched: VarId,
}

impl HotSet {
    pub fn of(net: &BayesianNetwork, spec_seed: u64) -> HotSet {
        let mut rng = rng(spec_seed, 0x407);
        let n = net.num_vars();
        let mut order: Vec<usize> = (0..n).collect();
        let take = (HOT_SET + 1).min(n);
        for i in 0..take {
            let j = rng.gen_range(i..n);
            order.swap(i, j);
        }
        HotSet {
            vars: order[1..take]
                .iter()
                .map(|&v| VarId::from_index(v))
                .collect(),
            watched: VarId::from_index(order[0]),
        }
    }
}

/// Evidence edits on the hot set: 80 % observe, 10 % retract, 10 %
/// (strictly positive) likelihood.
pub struct EditStream {
    hot: Vec<(VarId, usize)>,
    rng: StdRng,
}

impl EditStream {
    pub fn new(net: &BayesianNetwork, hot: &HotSet, seed: u64) -> EditStream {
        EditStream {
            hot: hot.vars.iter().map(|&v| (v, net.cardinality(v))).collect(),
            rng: rng(seed, 0xED17),
        }
    }

    pub fn next_edit(&mut self) -> EvidenceDelta {
        let (var, card) = self.hot[self.rng.gen_range(0..self.hot.len())];
        match self.rng.gen::<f64>() {
            u if u < 0.80 => EvidenceDelta::observe(var, self.rng.gen_range(0..card)),
            u if u < 0.90 => EvidenceDelta::retract(var),
            _ => EvidenceDelta::likelihood(var, positive_likelihood(card, &mut self.rng)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workload;
    use fastbn::bayesnet::generators::windowed_dag;

    /// Fingerprint of the first ops of a workload's input stream.
    fn stream_hash(workload: Workload, seed: u64) -> u64 {
        let spec = &workload.specs()[0];
        let net = windowed_dag(spec);
        let mut text = String::new();
        match workload {
            Workload::SmallCliques | Workload::LargeCliques => {
                let mut s = CaseStream::new(&net, 16, seed);
                for _ in 0..64 {
                    let i = s.next_index();
                    text.push_str(&format!("{i}:{:?};", s.queries[i]));
                }
            }
            Workload::ServedMix => {
                let traffic = [ModelTraffic::new("m", &net, 16, true, seed)];
                let mut s = RequestStream::new(seed, 0);
                for _ in 0..64 {
                    let r = s.next(&traffic);
                    let q = &traffic[r.model].templates[r.set][r.mode as usize];
                    text.push_str(&format!("{r:?}:{q:?};"));
                }
            }
            Workload::LiveEdits => {
                let hot = HotSet::of(&net, spec.seed);
                let mut s = EditStream::new(&net, &hot, seed);
                for _ in 0..64 {
                    text.push_str(&format!("{:?};", s.next_edit()));
                }
            }
        }
        fnv(text.as_bytes())
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        for w in Workload::ALL {
            assert_eq!(stream_hash(w, 1), stream_hash(w, 1), "{}", w.name());
            assert_ne!(stream_hash(w, 1), stream_hash(w, 2), "{}", w.name());
        }
    }

    #[test]
    fn hot_set_ignores_the_run_seed_and_excludes_the_watched_variable() {
        let net = windowed_dag(&Workload::ServedMix.specs()[0]);
        let a = HotSet::of(&net, 9);
        let b = HotSet::of(&net, 9);
        assert_eq!((a.vars.clone(), a.watched), (b.vars, b.watched));
        assert_eq!(a.vars.len(), HOT_SET);
        assert!(!a.vars.contains(&a.watched));
    }

    #[test]
    fn mode_mix_matches_its_shares() {
        let mut rng = rng(3, 3);
        let mut counts = [0usize; 5];
        for _ in 0..100_000 {
            counts[Mode::draw(rng.gen::<f64>()) as usize] += 1;
        }
        let share = |m: Mode| counts[m as usize] as f64 / 100_000.0;
        assert!((share(Mode::Marginals) - 0.69).abs() < 0.01);
        assert!((share(Mode::Targeted) - 0.15).abs() < 0.01);
        assert!((share(Mode::Virtual) - 0.10).abs() < 0.01);
        assert!((share(Mode::Mpe) - 0.05).abs() < 0.01);
        assert!((share(Mode::Malformed) - 0.01).abs() < 0.005);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let net = windowed_dag(&Workload::ServedMix.specs()[0]);
        let traffic = ModelTraffic::new("m", &net, 64, true, 1);
        let mut rng = rng(1, 1);
        let mut first = 0;
        for _ in 0..10_000 {
            if traffic.draw_set(&mut rng) == 0 {
                first += 1;
            }
        }
        // 1 / H_64 ≈ 0.21
        assert!((1_800..2_400).contains(&first), "{first}");
    }
}
