//! `ech-perfbench`: the repo benchmark.
//!
//! ```text
//! ech-perfbench --workload <read-hot|write-cold|elastic-cycle> --seed <n>
//!               --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one seeded closed-loop workload against the public `Cluster`
//! API, checks every output, and prints human-readable `#` lines, a CSV
//! table of metrics with units and sample counts, and — last — one JSON
//! object with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). A run whose checks fail prints the JSON with
//! `"correct": false` and exits 1.

mod run;
mod stats;
mod stream;
mod trace;

use run::{Bench, Report};
use stream::{Inputs, Spec, PAYLOAD_BYTES};

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: ech-perfbench --workload <read-hot|write-cold|elastic-cycle> --seed <n> --seconds <n> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                spec =
                    Some(stream::spec(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Never more closed-loop clients than hardware threads.
    let clients = args.spec.clients.min(nproc);
    assert!(
        clients <= nproc,
        "{clients} clients on {nproc} hardware threads"
    );
    let cfg = run::config();

    let generated = std::time::Instant::now();
    let inputs = Inputs::generate(args.spec, args.seed, clients);
    let digest = inputs.digest();
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# env available_parallelism={nproc} clients={clients} drain_reader_clients={} payload_bytes={PAYLOAD_BYTES} objects={} rewrite_per_cycle={} servers={} replicas={} engine={} commit={}",
        u8::from(args.spec.reader_during_drain),
        args.spec.objects,
        args.spec.rewrite,
        cfg.servers,
        cfg.replicas,
        cfg.placement,
        stats::commit()
    );
    println!(
        "# stream_digest={digest:016x} generated_in_s={:.3}",
        generated.elapsed().as_secs_f64()
    );

    let bench = Bench::new(&inputs, args.seconds as f64);
    let report = if args.trace {
        bench.per_layer()
    } else {
        bench.end_to_end()
    };
    let correct = print(&report, &args);
    std::process::exit(if correct { 0 } else { 1 });
}

/// Print the report; returns whether the run was correct.
fn print(report: &Report, args: &Args) -> bool {
    for note in &report.notes {
        println!("# {note}");
    }
    if args.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench-trace")
            .join(format!("{}-seed{}.csv", args.spec.name, args.seed));
        match trace::write_spans(&path, &report.spans) {
            Ok(()) => println!(
                "# spans={} written to {}",
                report.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    }
    let mut errors = report.errors.clone();
    for m in &report.metrics {
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not a number ({})", m.name, m.value));
        }
    }
    let error_rate = report.failed as f64 / report.attempted.max(1) as f64;
    println!("metric,value,unit,samples");
    for m in &report.metrics {
        println!("{},{},{},{}", m.name, m.value, m.unit, m.samples);
    }
    println!("error_rate,{error_rate},ratio,{}", report.attempted);
    let correct = errors.is_empty() && report.failed == 0 && report.attempted > 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload write-cold --seed 5 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.spec.name, a.seed, a.seconds, a.trace),
            ("write-cold", 5, 3, true)
        );
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(args("--workload nope").is_err());
        assert!(args("--workload read-hot --trace 2").is_err());
        assert!(args("--workload read-hot --bogus 1").is_err());
        assert!(args("--seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload read-hot --seed 1 --seconds 1").is_err());
    }
}
