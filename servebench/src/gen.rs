//! Seeded request generation for the three serve workloads.
//!
//! Every request line is a pure function of the workload and the seed:
//! the same seed always yields a byte-identical sequence, and the
//! daemon only ever sees these generated lines. Sequences are produced
//! lazily by [`Generator::next_request`] because the closed loop decides at run
//! time how many requests it gets through.

use std::collections::HashSet;

use lcmm_fpga::{AccelDesign, Device, Precision};

/// SplitMix64: a small, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// The three workloads. Names are part of the benchmark's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cold,
    Warm,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Cold, Workload::Warm, Workload::Churn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "serve-cold",
            Workload::Warm => "serve-warm",
            Workload::Churn => "serve-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: what it stresses and what it bypasses.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Cold => {
                "every request misses the plan cache, so the planner passes do the work"
            }
            Workload::Warm => "every request hits the plan cache, so only the request path works",
            Workload::Churn => {
                "registry writes and WAL appends beside co-plans, workloads and cached reads"
            }
        }
    }

    /// Closed-loop client connections, one outstanding request each.
    pub fn connections(self) -> usize {
        match self {
            Workload::Churn => 1,
            _ => 2,
        }
    }

    /// Whether the daemon runs with a write-ahead log.
    pub fn uses_wal(self) -> bool {
        self == Workload::Churn
    }
}

/// The three option modes every plan request comes in.
const MODES: [&str; 3] = ["default", "weight_streaming:auto", "fusion:auto"];

/// What kind of reply a request must get, and what it must say.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// A single-model plan; its allocation must fit `budget` bytes, and
    /// its latency must not exceed the UMM baseline's by more than the
    /// LCMM clock derate (UMM runs at `umm_hz`).
    Plan { budget: u64, umm_hz: f64 },
    /// A co-plan over exactly `tenants` registered models.
    Coplan { tenants: usize },
    /// One tenant's slice of the co-plan.
    Route { model: String },
    /// A registry acknowledgement leaving `models` registered.
    Registry { models: u64 },
    /// A workload-simulation report.
    Workload,
}

impl Expect {
    /// The op class the request belongs to, for per-class latency.
    pub fn class(&self) -> &'static str {
        match self {
            Expect::Plan { .. } => "plan",
            Expect::Coplan { .. } => "coplan",
            Expect::Route { .. } => "route",
            Expect::Registry { .. } => "registry",
            Expect::Workload => "workload",
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The exact line sent to the daemon (no newline).
    pub line: String,
    /// What the reply must be.
    pub expect: Expect,
    /// The state the reply is a function of: replies for equal keys
    /// must be byte-identical apart from the `cached` flag.
    pub key: String,
    /// Whether the reply must (`Some(true)`) or must not
    /// (`Some(false)`) come from the plan cache.
    pub cached: Option<bool>,
}

/// A plan request line for `net` in `mode` at `budget` bytes.
fn plan_line(net: &str, mode: &str, precision: Option<&str>, budget: u64) -> String {
    let precision = precision.map_or(String::new(), |p| format!(",\"precision\":\"{p}\""));
    let mode = match mode.split_once(':') {
        Some((key, value)) => format!(",\"{key}\":\"{value}\""),
        None => String::new(),
    };
    format!("{{\"graph\":\"{net}\"{precision},\"options\":{{\"tensor_budget\":{budget}{mode}}}}}")
}

fn plan_request(line: String, budget: u64, umm_hz: f64, cached: Option<bool>) -> Request {
    Request {
        key: line.clone(),
        line,
        expect: Expect::Plan { budget, umm_hz },
        cached,
    }
}

/// The full (1×) tensor budget of `net`'s explored VU9P design at
/// `precision` — the scale every seeded budget is a fraction of — and
/// that design's (UMM) clock.
fn explored(net: &str, precision: Precision) -> (u64, f64) {
    let graph = lcmm_graph::zoo::by_name(net).expect("zoo net");
    let design = AccelDesign::try_explore(&graph, &Device::vu9p(), precision)
        .expect("VU9P fits every zoo net");
    (design.tensor_sram_budget(), design.freq_hz)
}

/// A log-uniform budget fraction in `[1/16, 1]` drawn inside stratum
/// `stratum` of `strata` equal log-width strata.
fn stratified_fraction(stratum: usize, strata: usize, rng: &mut Rng) -> f64 {
    let u = (stratum as f64 + rng.unit()) / strata as f64;
    (16f64.ln() * (u - 1.0)).exp()
}

/// Budget strata per cold round cycle: over 16 rounds every
/// (net, mode) pair visits each sixteenth of the log budget range once,
/// so the mix of tight and loose budgets barely moves between seeds.
const COLD_STRATA: usize = 16;

/// Budget strata of the warm workload's primed set (one plan per
/// stratum per (net, mode) pair: 11 × 3 × 3 = 99 entries, inside the
/// daemon's 128-entry plan cache).
const WARM_STRATA: usize = 3;

/// The churn registry: 5 models, each registered at fix16 or fix8.
const CHURN_MODELS: [&str; 5] = [
    "alexnet",
    "squeezenet",
    "mobilenet",
    "googlenet",
    "resnet50",
];
const CHURN_PRECISIONS: [&str; 2] = ["16", "8"];

/// The unordered model pairs churn `workload` ops simulate.
const CHURN_PAIRS: [(usize, usize); 10] = [
    (0, 1),
    (0, 2),
    (0, 3),
    (0, 4),
    (1, 2),
    (1, 3),
    (1, 4),
    (2, 3),
    (2, 4),
    (3, 4),
];

/// Models registered (at fix16) during churn set-up; writes keep two
/// or three registered (a co-plan gives every tenant its own DRAM bank,
/// and VU9P has four).
const CHURN_INITIAL: usize = 3;

/// Each registered tenant takes an explicit quarter of the device, so
/// any registry state sums to at most 1 and co-plans skip the share
/// search.
const CHURN_SHARE: &str = "0.25";

/// One churn round: how many ops of each class it holds, in a seeded
/// order. Whole rounds keep the op mix the same for every seed.
const CHURN_ROUND: [(ChurnOp, usize); 5] = [
    (ChurnOp::Read, 10),
    (ChurnOp::Write, 3),
    (ChurnOp::Coplan, 2),
    (ChurnOp::Route, 3),
    (ChurnOp::Workload, 2),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChurnOp {
    Read,
    Write,
    Coplan,
    Route,
    Workload,
}

/// Share-grid resolution of the churn `workload` ops.
const CHURN_WORKLOAD_STEPS: u64 = 4;

/// A seeded, lazily generated request stream for one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    nets: Vec<&'static str>,
    /// Full budget and UMM clock of every net at fix16.
    designs: Vec<(u64, f64)>,
    /// Cold: position inside the current round and its order.
    index: usize,
    round_order: Vec<usize>,
    /// Cold: per (net, mode) stratum permutation of the current cycle,
    /// plus every budget already used, so no request ever repeats.
    strata: Vec<Vec<usize>>,
    used: Vec<HashSet<u64>>,
    /// Warm: the primed set.
    primed: Vec<Request>,
    rng: Rng,
    /// Churn: registered models (name → precision index).
    registry: Vec<Option<usize>>,
    /// Churn: the cached single-model plan reads.
    churn_reads: Vec<Request>,
    /// Churn: the current round's op order, and the seeded cycles
    /// through the plan reads and the workload (pair, precision,
    /// controller) forms.
    round: Vec<ChurnOp>,
    reads: Cycle,
    workloads: Cycle,
    /// Churn: the cyclic model order the registry slides over, and how
    /// many models have left it so far.
    order: Vec<usize>,
    oldest: usize,
}

/// Endless seeded permutations of `0..len`, one per pass.
#[derive(Debug, Clone)]
struct Cycle {
    stream: u64,
    len: usize,
    passes: u64,
    order: Vec<usize>,
}

impl Cycle {
    fn new(stream: u64, len: usize) -> Self {
        Self {
            stream,
            len,
            passes: 0,
            order: Vec::new(),
        }
    }

    fn next(&mut self, seed: u64) -> usize {
        if self.order.is_empty() {
            let mut rng = Rng::new(seed, self.stream + self.passes);
            self.passes += 1;
            self.order = rng.permutation(self.len);
        }
        self.order.pop().expect("refilled above")
    }
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let nets: Vec<&'static str> = lcmm_graph::zoo::names().to_vec();
        let designs = nets.iter().map(|n| explored(n, Precision::Fix16)).collect();
        let mut gen = Generator {
            workload,
            seed,
            nets,
            designs,
            index: 0,
            round_order: Vec::new(),
            strata: Vec::new(),
            used: Vec::new(),
            primed: Vec::new(),
            rng: Rng::new(seed, workload as u64 + 1),
            registry: vec![None; CHURN_MODELS.len()],
            churn_reads: Vec::new(),
            round: Vec::new(),
            reads: Cycle::new(0x6000_0000, 0),
            workloads: Cycle::new(0x7000_0000, 0),
            order: Vec::new(),
            oldest: 0,
        };
        match workload {
            Workload::Cold => gen.used = vec![HashSet::new(); gen.combos()],
            Workload::Warm => gen.primed = gen.warm_primed(),
            Workload::Churn => {
                gen.churn_reads = gen.churn_reads();
                gen.reads.len = gen.churn_reads.len();
                gen.workloads.len = CHURN_PAIRS.len() * CHURN_PRECISIONS.len() * 2;
                gen.order = Rng::new(seed, 0x9000_0000).permutation(CHURN_MODELS.len());
                for &m in &gen.order[..CHURN_INITIAL] {
                    gen.registry[m] = Some(0);
                }
            }
        }
        gen
    }

    /// Number of (net, mode) pairs.
    fn combos(&self) -> usize {
        self.nets.len() * MODES.len()
    }

    /// Requests sent during set-up, before the first measured request.
    /// Set-up replies are checked too, but not timed as requests.
    pub fn setup(&self) -> Vec<Request> {
        match self.workload {
            // Warm the design and profile caches of every net; the
            // default-budget plans never collide with measured budgets.
            Workload::Cold => self
                .nets
                .iter()
                .zip(&self.designs)
                .map(|(net, &(_, umm_hz))| {
                    let line = format!("{{\"graph\":\"{net}\"}}");
                    plan_request(line, u64::MAX, umm_hz, Some(false))
                })
                .collect(),
            Workload::Warm => self
                .primed
                .iter()
                .map(|r| Request {
                    cached: Some(false),
                    ..r.clone()
                })
                .collect(),
            Workload::Churn => {
                let mut out: Vec<Request> = self
                    .churn_reads
                    .iter()
                    .map(|r| Request {
                        cached: Some(false),
                        ..r.clone()
                    })
                    .collect();
                // Start with the first models of the order at fix16.
                let mut registry = vec![None; CHURN_MODELS.len()];
                for &m in &self.order[..CHURN_INITIAL] {
                    registry[m] = Some(0);
                    out.push(register_request(m, 0, &registry));
                }
                out
            }
        }
    }

    /// The next measured request.
    pub fn next_request(&mut self) -> Request {
        match self.workload {
            Workload::Cold => self.next_cold(),
            Workload::Warm => {
                let pick = self.rng.below(self.primed.len());
                self.primed[pick].clone()
            }
            Workload::Churn => self.next_churn(),
        }
    }

    /// The first `n` measured requests (after set-up state).
    pub fn take(mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn next_cold(&mut self) -> Request {
        let combos = self.combos();
        let round = self.index / combos;
        let pos = self.index % combos;
        self.index += 1;
        if pos == 0 {
            let mut rng = Rng::new(self.seed, 0x1000 + round as u64);
            self.round_order = rng.permutation(combos);
            if round.is_multiple_of(COLD_STRATA) {
                let cycle = (round / COLD_STRATA) as u64;
                let mut rng = Rng::new(self.seed, 0x2000 + cycle);
                self.strata = (0..combos).map(|_| rng.permutation(COLD_STRATA)).collect();
            }
        }
        let combo = self.round_order[pos];
        let (net, mode) = (combo / MODES.len(), combo % MODES.len());
        let stratum = self.strata[combo][round % COLD_STRATA];
        let mut rng = Rng::new(self.seed, 0x3000 + (round * combos + combo) as u64);
        let fraction = stratified_fraction(stratum, COLD_STRATA, &mut rng);
        let (full, umm_hz) = self.designs[net];
        let mut budget = (full as f64 * fraction) as u64;
        while !self.used[combo].insert(budget) {
            budget += 1;
        }
        plan_request(
            plan_line(self.nets[net], MODES[mode], None, budget),
            budget,
            umm_hz,
            Some(false),
        )
    }

    fn warm_primed(&self) -> Vec<Request> {
        let mut rng = Rng::new(self.seed, 0x4000);
        let mut out = Vec::new();
        for (net, &(full, umm_hz)) in self.nets.iter().zip(&self.designs) {
            for mode in MODES {
                for stratum in 0..WARM_STRATA {
                    let fraction = stratified_fraction(stratum, WARM_STRATA, &mut rng);
                    let budget = (full as f64 * fraction) as u64;
                    out.push(plan_request(
                        plan_line(net, mode, None, budget),
                        budget,
                        umm_hz,
                        Some(true),
                    ));
                }
            }
        }
        out
    }

    /// The single-model plans churn reads back: one per churn model ×
    /// precision × mode, the three modes of a pair spread over the
    /// three log-thirds of the budget range. Plan entries are content
    /// addressed, so registry churn never invalidates them.
    fn churn_reads(&self) -> Vec<Request> {
        let mut rng = Rng::new(self.seed, 0x5000);
        let mut out = Vec::new();
        for net in CHURN_MODELS {
            for (pi, precision) in CHURN_PRECISIONS.iter().enumerate() {
                let fixed = [Precision::Fix16, Precision::Fix8][pi];
                let (full, umm_hz) = explored(net, fixed);
                let strata = rng.permutation(MODES.len());
                for (mode, stratum) in MODES.into_iter().zip(strata) {
                    let fraction = stratified_fraction(stratum, MODES.len(), &mut rng);
                    let budget = (full as f64 * fraction) as u64;
                    out.push(plan_request(
                        plan_line(net, mode, Some(precision), budget),
                        budget,
                        umm_hz,
                        None,
                    ));
                }
            }
        }
        out
    }

    fn next_churn(&mut self) -> Request {
        if self.round.is_empty() {
            let slots: Vec<ChurnOp> = CHURN_ROUND
                .iter()
                .flat_map(|&(op, n)| std::iter::repeat_n(op, n))
                .collect();
            let mut rng = Rng::new(self.seed, 0x8000_0000 + self.index as u64);
            self.round = rng
                .permutation(slots.len())
                .into_iter()
                .map(|i| slots[i])
                .collect();
        }
        self.index += 1;
        let op = self.round.pop().expect("refilled above");
        let registered: Vec<usize> = (0..CHURN_MODELS.len())
            .filter(|&m| self.registry[m].is_some())
            .collect();
        match op {
            ChurnOp::Read => self.churn_reads[self.reads.next(self.seed)].clone(),
            // The registry slides over a seeded cyclic order of the
            // models: writes alternate between dropping the longest
            // registered model and registering the next one, at fix16
            // on even passes over the order and fix8 on odd ones. Every
            // model spends the same share of a run registered, whatever
            // the seed.
            ChurnOp::Write => {
                if registered.len() > CHURN_INITIAL - 1 {
                    let m = self.order[self.oldest % CHURN_MODELS.len()];
                    self.oldest += 1;
                    self.registry[m] = None;
                    let model = CHURN_MODELS[m];
                    let line = format!("{{\"op\":\"unregister\",\"model\":\"{model}\"}}");
                    registry_request(line, &self.registry)
                } else {
                    let next = self.oldest + CHURN_INITIAL - 1;
                    let m = self.order[next % CHURN_MODELS.len()];
                    let p = next / CHURN_MODELS.len() % CHURN_PRECISIONS.len();
                    self.registry[m] = Some(p);
                    register_request(m, p, &self.registry)
                }
            }
            ChurnOp::Coplan => Request {
                line: "{\"op\":\"coplan\"}".to_string(),
                key: format!("coplan|{}", registry_key(&self.registry)),
                expect: Expect::Coplan {
                    tenants: registered.len(),
                },
                cached: None,
            },
            ChurnOp::Route => {
                let m = registered[self.rng.below(registered.len())];
                let model = CHURN_MODELS[m];
                Request {
                    line: format!("{{\"op\":\"route\",\"model\":\"{model}\"}}"),
                    key: format!("route:{model}|{}", registry_key(&self.registry)),
                    expect: Expect::Route {
                        model: model.to_string(),
                    },
                    cached: None,
                }
            }
            // A distinct seeded `tensor_budget` per op keys every
            // workload op apart, so each one simulates instead of
            // replaying a cached report (co-planning replaces the
            // budget with each tenant's share, so the plans agree).
            ChurnOp::Workload => {
                let form = self.workloads.next(self.seed);
                let (a, b) = CHURN_PAIRS[form % CHURN_PAIRS.len()];
                let precision = CHURN_PRECISIONS[form / CHURN_PAIRS.len() % CHURN_PRECISIONS.len()];
                let controller = form >= CHURN_PAIRS.len() * CHURN_PRECISIONS.len();
                let budget = (1 << 24) + self.index as u64;
                let line = format!(
                    "{{\"op\":\"workload\",\"models\":\"{},{}\",\"precision\":\"{precision}\",\"trace\":\"bursty2\",\"controller\":{controller},\"steps\":{CHURN_WORKLOAD_STEPS},\"options\":{{\"tensor_budget\":{budget}}}}}",
                    CHURN_MODELS[a], CHURN_MODELS[b]
                );
                Request {
                    key: line.clone(),
                    line,
                    expect: Expect::Workload,
                    cached: Some(false),
                }
            }
        }
    }
}

fn register_request(m: usize, p: usize, registry: &[Option<usize>]) -> Request {
    let model = CHURN_MODELS[m];
    let precision = CHURN_PRECISIONS[p];
    let line = format!(
        "{{\"op\":\"register\",\"model\":\"{model}\",\"graph\":\"{model}\",\"precision\":\"{precision}\",\"share\":{CHURN_SHARE}}}"
    );
    registry_request(line, registry)
}

/// A registry mutation; `registry` is the state it leaves behind.
fn registry_request(line: String, registry: &[Option<usize>]) -> Request {
    Request {
        key: format!("{line}|{}", registry_key(registry)),
        line,
        expect: Expect::Registry {
            models: registry.iter().flatten().count() as u64,
        },
        cached: None,
    }
}

/// A canonical string of the registry state a co-plan is a function of.
fn registry_key(registry: &[Option<usize>]) -> String {
    registry
        .iter()
        .enumerate()
        .filter_map(|(m, p)| p.map(|p| format!("{}@{}", CHURN_MODELS[m], CHURN_PRECISIONS[p])))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn lines(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        let gen = Generator::new(workload, seed);
        gen.setup()
            .into_iter()
            .chain(gen.take(n))
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_request_list() {
        for workload in Workload::ALL {
            let a = lines(workload, 7, 3000).join("\n");
            let b = lines(workload, 7, 3000).join("\n");
            assert_eq!(a.as_bytes(), b.as_bytes(), "{}", workload.name());
            assert_ne!(
                a,
                lines(workload, 8, 3000).join("\n"),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn cold_requests_never_repeat_and_stay_in_the_budget_range() {
        let gen = Generator::new(Workload::Cold, 3);
        let full: HashMap<&str, u64> = gen
            .nets
            .iter()
            .copied()
            .zip(gen.designs.iter().map(|d| d.0))
            .collect();
        let requests = gen.take(5000);
        let distinct: HashSet<&str> = requests.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(distinct.len(), requests.len());
        for r in &requests {
            let Expect::Plan { budget, .. } = r.expect else {
                panic!("cold sends plans only");
            };
            let net = r.line.split('"').nth(3).expect("graph name");
            assert!(
                budget >= full[net] / 16 && budget <= full[net],
                "{}",
                r.line
            );
        }
    }

    #[test]
    fn warm_requests_replay_a_primed_set_the_plan_cache_holds() {
        let gen = Generator::new(Workload::Warm, 5);
        let primed: HashSet<String> = gen.setup().into_iter().map(|r| r.line).collect();
        assert!(primed.len() <= 128, "{} primed plans", primed.len());
        assert!(gen.take(2000).iter().all(|r| primed.contains(&r.line)));
    }

    #[test]
    fn churn_keeps_two_or_three_tenants_and_a_fixed_op_mix() {
        let requests = Generator::new(Workload::Churn, 9).take(20 * 50);
        let mut mix: HashMap<&str, usize> = HashMap::new();
        for r in &requests {
            *mix.entry(r.expect.class()).or_default() += 1;
            match r.expect {
                Expect::Registry { models } => assert!((2..=3).contains(&models)),
                Expect::Coplan { tenants } => assert!((2..=3).contains(&tenants)),
                _ => {}
            }
        }
        let expected: HashMap<&str, usize> = [
            ("plan", 500),
            ("registry", 150),
            ("coplan", 100),
            ("route", 150),
            ("workload", 100),
        ]
        .into_iter()
        .collect();
        assert_eq!(mix, expected);
    }
}
