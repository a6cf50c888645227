//! The trace binary: the per-layer numbers behind the gate's
//! end-to-end ones. See `README.md` in this directory.
//!
//! ```text
//! trace --workload <name> [--seed N] [--seconds S] [--trace 1] [--out DIR]
//! ```
//!
//! One run alternates untraced releases (through the gate's own
//! `sut` path) with traced ones (stages unrolled, link decorated),
//! checks that both open the same counts, then runs the probes. Spans
//! go to `<out>/trace-<workload>.jsonl`; the metrics are every name in
//! `metrics::PER_LAYER`, 0 where the workload never enters the layer.
//!
//! Unlike `bench`, this binary calls the system's internals freely; it
//! is allowed to stop compiling when they change, and the gate is not.

mod pipeline;
mod probes;
mod serve;
mod span;
mod streamed;
mod traced;

use cargo_benchmark::cli::parse_flags;
use cargo_benchmark::metrics::PER_LAYER;
use cargo_benchmark::report::{self, Metric, Outcome};
use cargo_benchmark::workload::Workload;
use cargo_benchmark::{host, inputs, procfs, runner};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// The per-layer values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a per-layer metric. The name must be one `BENCHMARK.json`
    /// declares: an undeclared metric would silently vanish from the
    /// driver's view.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// A metric set earlier in the run (0 if never set).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `trace.overhead_ratio` from the fastest traced and the
    /// fastest untraced sample — the gate's own statistic (see
    /// `runner`): a median would mostly report which side the machine's
    /// disturbances hit.
    pub fn set_overhead(&mut self, traced: &[f64], untraced: &[f64]) {
        self.set(
            "trace.overhead_ratio",
            runner::fastest(traced) / runner::fastest(untraced),
        );
        self.set("trace.releases", traced.len() as f64);
    }

    /// Every declared metric, in declaration order; 0 where unset.
    fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|m| Metric::new(m.name, self.get(m.name), m.unit))
            .collect()
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Inputs are generated by the gate binary, which run.sh builds
    // beside this one.
    let args = flags.run_args(exe.with_file_name("bench"))?;
    let cpu = procfs::pin_to_first_allowed_cpu()?;
    let inputs = inputs::ensure(args.workload, args.seed, &args.out, &args.gen_exe)?;
    // Half the gate's operations untraced, half traced.
    let ops = args.workload.ops_for(args.seconds).div_ceil(2);

    let origin = Instant::now();
    let mut layers = Layers::default();
    let mut outcome = Outcome::default();
    let mut log = Vec::new();
    outcome.fact("workload", args.workload);
    outcome.fact("seed", args.seed);
    outcome.fact("seconds", args.seconds);
    outcome.fact("traced_ops", ops);
    match runner::pipeline_spec(args.workload, args.seed) {
        Some(spec) => pipeline::trace(
            &spec,
            &inputs,
            ops,
            origin,
            &mut layers,
            &mut outcome,
            &mut log,
        )?,
        None if args.workload == Workload::Stream1m => streamed::trace(
            args.seed,
            &inputs,
            ops,
            origin,
            &mut layers,
            &mut outcome,
            &mut log,
        )?,
        None => {
            let journal_dir = args
                .out
                .join("journal")
                .join(format!("trace-{}", std::process::id()));
            std::fs::create_dir_all(&journal_dir)
                .map_err(|e| format!("{}: {e}", journal_dir.display()))?;
            let traced = serve::trace(
                args.seed,
                &inputs,
                ops,
                &journal_dir,
                origin,
                &mut layers,
                &mut outcome,
                &mut log,
            );
            let _ = std::fs::remove_dir_all(&journal_dir);
            traced?
        }
    }

    layers.set("trace.spans", log.len() as f64);
    let path = args.out.join(format!("trace-{}.jsonl", args.workload));
    std::fs::write(&path, span::to_jsonl(&log)).map_err(|e| format!("{}: {e}", path.display()))?;
    outcome.metrics = layers.metrics();
    report::print_and_record("trace", &args.out, &host::metadata(cpu), &outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("trace: {message}");
            ExitCode::from(2)
        }
    }
}
