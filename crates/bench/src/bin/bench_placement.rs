//! Standalone runner for the ring placement scaling harness (the same
//! measurement `ech bench placement` exposes). Prints the JSON report to
//! stdout; pass `--smoke` for the short CI-sized workload. Exits 1 when
//! the remap cross-check fails.

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    match ech_bench::placement::run(smoke) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
