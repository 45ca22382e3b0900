//! The correctness gate: every reply is checked against what its
//! generated request must produce. A failed check counts against the
//! run and makes the benchmark exit non-zero.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use serde_json::Value;

use crate::daemon::Connection;
use crate::gen::{Expect, Request};

/// Failure descriptions kept for the report; the count is unbounded.
const KEPT_FAILURES: usize = 20;

/// The request forms behind `checks/golden/serve_{1..4}.json`.
pub const GOLDEN_REQUESTS: [&str; 4] = [
    r#"{"graph":"alexnet","precision":"8"}"#,
    r#"{"graph":"googlenet","allocator":"greedy"}"#,
    r#"{"graph":"synthetic:64x3x7","options":{"splitting":false}}"#,
    r#"{"graph":"alexnet","options":{"weight_streaming":"auto","tensor_budget":1048576}}"#,
];

/// Checks replies and remembers what byte-identity and plan quality
/// need across requests.
#[derive(Debug, Default)]
pub struct Checker {
    /// First reply seen per request key, with the `cached` flag
    /// normalised away.
    first: HashMap<String, String>,
    pub checked: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Modelled inference latency (seconds) of every distinct plan
    /// returned while recording, keyed by the plan's bytes.
    plans: BTreeMap<String, f64>,
}

fn normalise(reply: &str) -> String {
    match reply.strip_prefix("{\"cached\":true,") {
        Some(rest) => format!("{{\"cached\":false,{rest}"),
        None => reply.to_string(),
    }
}

fn number(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(Value::as_f64)
}

impl Checker {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(message);
        }
    }

    /// Checks one reply to `request`. When `record` is set, the plans
    /// it returns feed [`Checker::model_latency_geomean_ms`].
    pub fn check(&mut self, request: &Request, reply: &str, record: bool) -> bool {
        self.checked += 1;
        match self.verify(request, reply, record) {
            Ok(()) => true,
            Err(why) => {
                let head: String = reply.chars().take(160).collect();
                self.fail(format!("{}: {why}; reply {head}", request.line));
                false
            }
        }
    }

    fn verify(&mut self, request: &Request, reply: &str, record: bool) -> Result<(), String> {
        let v: Value =
            serde_json::from_str(reply).map_err(|e| format!("reply is not JSON: {e}"))?;
        if v.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err("reply is not ok".to_string());
        }
        if let Some(expected) = request.cached {
            if v.get("cached").and_then(Value::as_bool) != Some(expected) {
                return Err(format!("expected cached:{expected}"));
            }
        }
        let normalised = normalise(reply);
        match self.first.get(&request.key) {
            Some(first) if *first != normalised => {
                return Err("reply differs from the first reply to the same request".to_string())
            }
            Some(_) => {}
            None => {
                self.first.insert(request.key.clone(), normalised);
            }
        }
        let plan = v.get("plan");
        match &request.expect {
            Expect::Plan { budget, umm_hz } => {
                let plan = plan.ok_or("plan reply without a plan")?;
                let latency = number(plan, "latency_seconds").ok_or("no latency_seconds")?;
                let umm = number(plan, "umm_latency_seconds").ok_or("no umm_latency_seconds")?;
                let lcmm_hz = plan
                    .get("design")
                    .and_then(|d| number(d, "frequency_hz"))
                    .ok_or("no design.frequency_hz")?;
                // LCMM pays a clock derate for its extra buffers; the
                // allocation itself must never lose to UMM beyond it.
                let bound = umm * (umm_hz / lcmm_hz).max(1.0);
                if !(latency > 0.0 && latency <= bound) {
                    return Err(format!(
                        "latency {latency} not within (0, UMM {umm} × {umm_hz}/{lcmm_hz} Hz]"
                    ));
                }
                let bytes = match plan.get("weight_streaming") {
                    Some(ws) => ws.get("occupied_bytes").and_then(Value::as_u64),
                    None => plan.get("allocated_bytes").and_then(Value::as_u64),
                }
                .ok_or("no allocated/occupied bytes")?;
                if bytes > *budget {
                    return Err(format!("{bytes} B on chip over the {budget} B budget"));
                }
                if record {
                    self.record(plan, latency);
                }
            }
            Expect::Coplan { tenants } => {
                let list = plan
                    .and_then(|p| p.get("tenants"))
                    .and_then(Value::as_array)
                    .ok_or("co-plan without tenants")?;
                if list.len() != *tenants {
                    return Err(format!("{} tenants, expected {tenants}", list.len()));
                }
                for t in list {
                    let latency = number(t, "contended_latency_seconds")
                        .filter(|l| *l > 0.0)
                        .ok_or("tenant without a positive contended latency")?;
                    if record {
                        self.record(t, latency);
                    }
                }
            }
            Expect::Route { model } => {
                let slice = plan.ok_or("route reply without a plan")?;
                if slice.get("model").and_then(Value::as_str) != Some(model) {
                    return Err(format!("route did not answer tenant {model}"));
                }
                let latency = number(slice, "contended_latency_seconds")
                    .filter(|l| *l > 0.0)
                    .ok_or("route slice without a positive contended latency")?;
                if record {
                    self.record(slice, latency);
                }
            }
            Expect::Registry { models } => {
                if v.get("models").and_then(Value::as_u64) != Some(*models) {
                    return Err(format!("registry should hold {models} models"));
                }
            }
            Expect::Workload => {
                plan.and_then(|p| p.get("controller"))
                    .ok_or("workload reply without a controller report")?;
            }
        }
        Ok(())
    }

    fn record(&mut self, plan: &Value, latency: f64) {
        let bytes = serde_json::to_string(plan).expect("plan re-serialises");
        self.plans.insert(bytes, latency);
    }

    /// Geometric mean of the modelled latency of the distinct plans
    /// recorded, in ms, and how many plans it covers.
    pub fn model_latency_geomean_ms(&self) -> (f64, usize) {
        let g = crate::report::geomean(self.plans.values().copied());
        (g * 1e3, self.plans.len())
    }

    /// Replays the request forms behind the committed serve goldens and
    /// compares the replies byte for byte. `golden_dir` is only read.
    pub fn check_goldens(
        &mut self,
        conn: &mut Connection,
        golden_dir: &Path,
    ) -> Result<(), String> {
        for (i, line) in GOLDEN_REQUESTS.iter().enumerate() {
            let path = golden_dir.join(format!("serve_{}.json", i + 1));
            let golden =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let reply = conn
                .call(line)
                .map_err(|e| format!("golden request: {e}"))?;
            self.checked += 1;
            if reply != golden.trim_end_matches('\n') {
                let head: String = reply.chars().take(160).collect();
                self.fail(format!(
                    "{line}: reply differs from {}: {head}",
                    path.display()
                ));
            }
        }
        Ok(())
    }
}
