//! The repository benchmark: four closed-loop workloads driven through the
//! public API of the distance-join workspace from one process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|sweep|sessions|semi-drain> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, and the spans
//! are written to `perfbench/out/`. See `perfbench/README.md`.

mod check;
mod layers;
mod paper;
mod replay;
mod report;
mod semi_drain;
mod sessions;
mod setup;
mod sweep;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Duration;

use report::{json_str, Metrics};
use trace::Trace;

const USAGE: &str =
    "usage: sdj-perfbench --workload <paper|sweep|sessions|semi-drain> --seed <n> --seconds <s> --trace <0|1>";

/// Environment variables the library reads inside `plan` and
/// `SessionConfig::default()`; any of them would silently change what the
/// workloads measure.
fn pinned_env_violation() -> Option<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .find(|k| k == "SDJ_PLAN_BIAS" || k.starts_with("SDJ_ADAPTIVE_"))
}

/// Pins glibc's mmap threshold at its initial 128 KiB. Left dynamic, glibc
/// raises it to the size of the first mapped block a run frees, and from
/// then on serves growing queue buffers from the heap, where a reallocation
/// holds the old and the new buffer at once. Where in a run that happens
/// varies between runs: `semi-drain`'s `peak_rss_mb` spread (interquartile
/// range over median) was 0.10 and 0.13 over two sets of ten seeds with the
/// threshold dynamic, and 0.04 over six seeds with it fixed.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets an allocator parameter, and it runs before
    // the benchmark allocates its inputs or starts a thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Sweep,
    Sessions,
    SemiDrain,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(Self::Paper),
            "sweep" => Some(Self::Sweep),
            "sessions" => Some(Self::Sessions),
            "semi-drain" => Some(Self::SemiDrain),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::Paper => "paper",
            Self::Sweep => "sweep",
            Self::Sessions => "sessions",
            Self::SemiDrain => "semi-drain",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(Duration::from_secs(10)),
            trace: trace.unwrap_or(false),
        })
    }
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Runs one operation, counting a typed error or a panic as a failure.
    pub fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, e);
                None
            }
            Err(p) => {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(what, format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Records an output check of an operation already counted as attempted.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(what, e);
        }
    }

    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        self.failures.push(format!("{what}: {why}"));
    }
}

/// What one workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Metrics,
    /// The workload's own named figures, printed before the result line.
    pub detail: Metrics,
    pub per_layer: Metrics,
}

/// Seed, revision and host, stamped on every result.
fn stamp(args: &Args) -> String {
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_rev\": {}, \"nproc\": {nproc}, \"cpu\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        json_str(&rev),
        json_str(&cpu)
    )
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sdj-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = pinned_env_violation() {
        eprintln!(
            "sdj-perfbench: refusing to start: {var} is set, and the library reads it inside \
             plan() and SessionConfig::default(); unset it to measure the default engine"
        );
        return ExitCode::from(2);
    }
    let stamp = stamp(&args);
    println!("# stamp {stamp}");

    let mut tr = Trace::new(args.trace);
    let mut out = match args.workload {
        Workload::Paper => paper::run(&args, &mut tr),
        Workload::Sweep => sweep::run(&args, &mut tr),
        Workload::Sessions => sessions::run(&args, &mut tr),
        Workload::SemiDrain => semi_drain::run(&args, &mut tr),
    };

    for (name, value, unit) in out.detail.iter() {
        println!("# {} {name} = {value} {unit}", args.workload.name());
    }
    for f in &out.tally.failures {
        eprintln!("sdj-perfbench: FAILED {f}");
    }
    let metrics = if args.trace {
        out.per_layer
            .set("trace.spans", tr.span_count() as f64, "count");
        let per_layer = layers::complete(&out.per_layer);
        let path = format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        let header = format!(
            "{{\"stamp\": {stamp}, \"per_layer\": {}, \"detail\": {}}}",
            per_layer.to_json(),
            out.detail.to_json()
        );
        match std::fs::create_dir_all("perfbench/out")
            .and_then(|()| std::fs::write(&path, tr.to_json(&header)))
        {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("sdj-perfbench: could not write {path}: {e}"),
        }
        per_layer
    } else {
        std::mem::take(&mut out.end_to_end)
    };
    let correct = out.tally.failed == 0 && out.tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.attempted.max(1),
        out.tally.failed,
        metrics.to_json()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload semi-drain --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::SemiDrain);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload paper --trace 2").is_err());
        assert!(parse("--workload paper --seconds -1").is_err());
        assert!(parse("--seed 3").is_err());
    }

    #[test]
    fn tally_counts_errors_and_panics() {
        let mut t = Tally::default();
        assert_eq!(t.op("ok", || Ok(1)), Some(1));
        assert_eq!(t.op("err", || Err::<(), _>("typed".into())), None);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        assert_eq!(
            t.op("panic", || -> Result<(), String> { panic!("boom") }),
            None
        );
        std::panic::set_hook(prev);
        t.check("check", Err("mismatch".into()));
        assert_eq!((t.attempted, t.failed), (3, 3));
    }
}
