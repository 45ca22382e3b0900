//! Minimal flag parsing (no external dependencies).

use lcmm_fpga::Precision;
use lcmm_graph::zoo::NameError;
use lcmm_graph::Graph;

/// Parsed command-line options.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// `--model <name>`.
    pub model: Option<String>,
    /// `--precision <8|16|32>`.
    pub precision: Option<Precision>,
    /// `--block <label>` (footprint).
    pub block: Option<String>,
    /// `--json` — emit machine-readable output where supported.
    pub json: bool,
    /// `--jobs <N>` — harness worker threads (default: all cores).
    pub jobs: Option<usize>,
    /// `--profile` — per-pass timing/counter JSON on stderr.
    pub profile: bool,
    /// `--seeds <N>` — random audit graphs (audit command).
    pub seeds: Option<usize>,
    /// `--tiny-sram <N>` — tiny-SRAM streaming audit cases (audit
    /// command).
    pub tiny_sram: Option<usize>,
    /// `--repros <dir>` — repro corpus directory (audit command).
    pub repros: Option<String>,
    /// `--fractions <a/b,c/d,…>` — SRAM budget fractions
    /// (sweep-budgets / sweep-fusion commands).
    pub fractions: Option<Vec<(u64, u64)>>,
    /// `--fusion <N>` — fused-plan audit cases (audit command; 0
    /// disables the fused batch).
    pub fusion: Option<usize>,
}

/// Parses one budget fraction: `a/b` (exact rational) or a bare
/// integer `n` (meaning `n/1`). Zero denominators and zero-valued
/// fractions are rejected — a zero budget is a degenerate case the
/// sweep covers explicitly, not via flag typos.
fn parse_fraction(text: &str) -> Result<(u64, u64), String> {
    let (num, den) = match text.split_once('/') {
        Some((n, d)) => (n.trim(), d.trim()),
        None => (text.trim(), "1"),
    };
    let num: u64 = num
        .parse()
        .map_err(|_| format!("bad fraction numerator in {text:?}"))?;
    let den: u64 = den
        .parse()
        .map_err(|_| format!("bad fraction denominator in {text:?}"))?;
    if den == 0 {
        return Err(format!("zero denominator in fraction {text:?}"));
    }
    if num == 0 {
        return Err(format!("zero-valued fraction {text:?}"));
    }
    Ok((num, den))
}

impl Opts {
    /// Parses `--flag value` pairs.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--model" => {
                    opts.model = Some(it.next().ok_or("--model needs a value")?.clone());
                }
                "--precision" => {
                    let v = it.next().ok_or("--precision needs a value")?;
                    opts.precision = Some(match v.as_str() {
                        "8" => Precision::Fix8,
                        "16" => Precision::Fix16,
                        "32" => Precision::Float32,
                        other => return Err(format!("unknown precision {other:?}")),
                    });
                }
                "--block" => {
                    opts.block = Some(it.next().ok_or("--block needs a value")?.clone());
                }
                "--json" => opts.json = true,
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--jobs needs a positive integer, got {v:?}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    opts.jobs = Some(n);
                }
                "--profile" => opts.profile = true,
                "--seeds" => {
                    let v = it.next().ok_or("--seeds needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--seeds needs a non-negative integer, got {v:?}"))?;
                    opts.seeds = Some(n);
                }
                "--tiny-sram" => {
                    let v = it.next().ok_or("--tiny-sram needs a value")?;
                    let n: usize = v.parse().map_err(|_| {
                        format!("--tiny-sram needs a non-negative integer, got {v:?}")
                    })?;
                    opts.tiny_sram = Some(n);
                }
                "--repros" => {
                    opts.repros = Some(it.next().ok_or("--repros needs a value")?.clone());
                }
                "--fusion" => {
                    let v = it.next().ok_or("--fusion needs a value")?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--fusion needs a non-negative integer, got {v:?}"))?;
                    opts.fusion = Some(n);
                }
                "--fractions" => {
                    let v = it.next().ok_or("--fractions needs a value")?;
                    let mut fractions = Vec::new();
                    for part in v.split(',') {
                        fractions.push(parse_fraction(part)?);
                    }
                    if fractions.is_empty() {
                        return Err("--fractions needs at least one fraction".to_string());
                    }
                    opts.fractions = Some(fractions);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(opts)
    }

    /// Resolves `--model`, defaulting to `default_name`.
    pub fn model_or(&self, default_name: &str) -> Result<Graph, String> {
        zoo_model(self.model.as_deref().unwrap_or(default_name))
    }

    /// Resolves `--precision`, defaulting to `default`.
    pub fn precision_or(&self, default: Precision) -> Precision {
        self.precision.unwrap_or(default)
    }

    /// Resolves `--jobs`, defaulting to the machine's core count.
    pub fn jobs(&self) -> usize {
        self.jobs.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// The models to report on: `--model` or the whole benchmark suite.
    pub fn models_or_suite(&self) -> Result<Vec<lcmm_graph::Graph>, String> {
        match &self.model {
            Some(name) => Ok(vec![zoo_model(name)?]),
            None => Ok(lcmm_graph::zoo::benchmark_suite()),
        }
    }

    /// The precisions to report on: `--precision` or all three.
    pub fn precisions_or_all(&self) -> Vec<Precision> {
        match self.precision {
            Some(p) => vec![p],
            None => Precision::ALL.to_vec(),
        }
    }
}

/// Builds the zoo net or `synthetic:` spec `name`; the error names it,
/// and says so when a spec asks for more nodes than the cap.
pub fn zoo_model(name: &str) -> Result<Graph, String> {
    lcmm_graph::zoo::try_by_name(name).map_err(|err| match err {
        NameError::Unknown => format!("unknown model {name:?}"),
        NameError::TooDeep(_) => format!("model {name:?}: {err}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let o = Opts::parse(&s(&[
            "--model",
            "googlenet",
            "--precision",
            "8",
            "--json",
            "--jobs",
            "3",
            "--profile",
            "--seeds",
            "4",
            "--repros",
            "checks/repros",
        ]))
        .unwrap();
        assert_eq!(o.model.as_deref(), Some("googlenet"));
        assert_eq!(o.precision, Some(Precision::Fix8));
        assert!(o.json);
        assert_eq!(o.jobs, Some(3));
        assert_eq!(o.jobs(), 3);
        assert!(o.profile);
        assert_eq!(o.seeds, Some(4));
        assert_eq!(o.repros.as_deref(), Some("checks/repros"));
    }

    #[test]
    fn rejects_unknown() {
        assert!(Opts::parse(&s(&["--frob"])).is_err());
        assert!(Opts::parse(&s(&["--precision", "7"])).is_err());
        assert!(Opts::parse(&s(&["--model"])).is_err());
        assert!(Opts::parse(&s(&["--jobs"])).is_err());
        assert!(Opts::parse(&s(&["--jobs", "0"])).is_err());
        assert!(Opts::parse(&s(&["--jobs", "many"])).is_err());
        assert!(Opts::parse(&s(&["--seeds"])).is_err());
        assert!(Opts::parse(&s(&["--seeds", "-1"])).is_err());
        assert!(Opts::parse(&s(&["--repros"])).is_err());
        assert!(Opts::parse(&s(&["--tiny-sram"])).is_err());
        assert!(Opts::parse(&s(&["--tiny-sram", "x"])).is_err());
        assert!(Opts::parse(&s(&["--fusion"])).is_err());
        assert!(Opts::parse(&s(&["--fusion", "x"])).is_err());
        assert!(Opts::parse(&s(&["--fractions"])).is_err());
        assert!(Opts::parse(&s(&["--fractions", "1/0"])).is_err());
        assert!(Opts::parse(&s(&["--fractions", "0/4"])).is_err());
        assert!(Opts::parse(&s(&["--fractions", "a/4"])).is_err());
    }

    #[test]
    fn parses_fractions_and_tiny_sram() {
        let o = Opts::parse(&s(&[
            "--fractions",
            "1/16, 1/8,1",
            "--tiny-sram",
            "2",
            "--fusion",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            o.fractions,
            Some(vec![(1, 16), (1, 8), (1, 1)]),
            "exact rational parsing"
        );
        assert_eq!(o.tiny_sram, Some(2));
        assert_eq!(o.fusion, Some(0));
    }

    #[test]
    fn jobs_defaults_to_cores() {
        let o = Opts::default();
        assert!(o.jobs() >= 1);
    }

    #[test]
    fn model_resolution() {
        let o = Opts::default();
        assert!(o.model_or("googlenet").is_ok());
        assert!(o.model_or("nonexistent").is_err());
    }
}
