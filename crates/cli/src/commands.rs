//! Subcommand implementations. Each returns its output as a `String` so
//! tests can assert on it without capturing stdout.

use crate::args::{Args, ParseError};
use ech_core::ids::ObjectId;
use ech_core::layout::{CapacityPlan, Layout};
use ech_core::membership::MembershipTable;
use ech_core::placement::{place, Strategy};
use ech_sim::experiments::{fig2_schedule, resize_agility, three_phase};
use ech_sim::ElasticityMode;
use ech_traces::{analyze, synth, PolicyKind, PolicyParams};
use std::fmt::Write as _;

/// Run a parsed command, returning its printable output.
pub fn run(args: &Args) -> Result<String, ParseError> {
    // Only `bench` takes a positional (the benchmark group name).
    if args.command != "bench" {
        args.no_positionals()?;
    }
    match args.command.as_str() {
        "help" => Ok(help()),
        "layout" => layout(args),
        "place" => place_cmd(args),
        "three-phase" => three_phase_cmd(args),
        "resize-agility" => resize_agility_cmd(args),
        "trace" => trace_cmd(args),
        "latency" => latency_cmd(args),
        "chaos" => chaos_cmd(args),
        "bench" => bench_cmd(args),
        "lint" => lint_cmd(args),
        "modelcheck" => modelcheck_cmd(args),
        "lincheck" => lincheck_cmd(args),
        other => Err(ParseError(format!(
            "unknown subcommand `{other}`; try `ech help`"
        ))),
    }
}

fn help() -> String {
    "\
ech — elastic consistent hashing toolkit

USAGE: ech <command> [--flag value]...

COMMANDS:
  layout          print equal-work weights and the capacity plan
                  [--servers N] [--base B] [--primaries P] [--data-gb G]
  place           compute replica placement for an object
                  [--servers N] [--oid K] [--replicas R] [--active A]
                  [--strategy primary|original]
  three-phase     run the §V-A 3-phase simulation, CSV to stdout
                  [--mode no-resizing|original|full|selective] [--valley S]
  resize-agility  run the Figure 2 schedule, CSV to stdout
                  [--mode original|selective] [--objects N]
  trace           trace-driven policy analysis (Table II style)
                  [--name cc-a|cc-b|cc-c|cc-d|cc-e]
  latency         read-latency tail during re-integration (queue model)
                  [--migration none|selective|unthrottled] [--rate MBps]
  chaos           run a deterministic fault-injection survival drill on a
                  live cluster and print the report
                  [--seed S] [--objects N] [--error-rate P]
                  [--crash1 OP] [--crash2 OP] [--servers N] [--replicas R]
                  [--net true]  add the message fault plane: flaky links,
                  an asymmetric partition, breakers and deadline budgets
  bench           run a benchmark group on the live cluster, JSON to
                  stdout (group: hotpath | placement | modelcheck)
                  [--smoke true] [--check-against FILE] [--tolerance T]
                  (placement measures the ring — lookup rate, resident
                  bytes, remap fraction checked against its analytic
                  expectation — at the million-key × 10³/10⁴-node grid;
                  modelcheck runs every model with reduction on and off
                  at its declared bound and reports schedules
                  explored/pruned — counts are deterministic, so
                  --check-against compares exactly)
  lint            run the workspace invariant analyzer (rules D1-D9)
                  [--root DIR] [--baseline FILE] [--deny-new true]
                  [--write-baseline true] [--json true]
  modelcheck      explore thread interleavings of the cluster's
                  publish/read/reintegrate protocols and report
                  violations with a replayable trace
                  [--model NAME | --models GLOB] [--weak true] [--bound P]
                  [--msg true] [--msg-budget N] [--lincheck true]
                  [--random true --seed S --iters N]
                  [--replay TRACE] [--max-preemptions P]
                  [--max-schedules B] [--no-reduce true] [--stats true]
                  [--stats-json FILE]
                  (partial-order reduction is on by default: sleep sets
                  plus dynamically inserted backtrack points prune
                  schedules equivalent up to reordering of independent
                  steps; --no-reduce restores the full bounded DFS and
                  must reach the same verdicts; --stats prints per-model
                  schedules run and runs abandoned by sleep sets)
                  (--weak simulates TSO store buffers: Relaxed stores
                  drain at explored flush points; --msg routes every
                  Cluster::rpc send through the explorer, which
                  enumerates per-message fates — drops, duplicates,
                  reorders, partition edges — under each model's fault
                  budget; --bound is an alias for --max-preemptions;
                  traces are v3 and carry the memory mode, preemption
                  bound and message budget they were recorded under)
                  (--models GLOB selects the subset matching a `*`
                  wildcard pattern; --lincheck records every schedule's
                  operation history at the Cluster API boundary and
                  rejects schedules whose history admits no
                  linearization order — witnesses are replayable `l1:`
                  lines the lincheck command re-verifies; --stats-json
                  also writes per-model verdicts and schedule counts to
                  FILE without changing the text report)
  lincheck        record a seeded deterministic stress history against a
                  live cluster on a virtual clock and check it with the
                  Wing–Gong linearizability checker
                  [--seed S] [--ops N] [--keys K]
                  [--witness L1LINE]  instead re-verify a rendered `l1:`
                  witness line: it must parse, stay non-linearizable,
                  and re-render byte-identically (minimal + canonical)
  help            this text
"
    .to_owned()
}

/// `ech bench <group>`: run a live-cluster benchmark group and print its
/// JSON report. With `--check-against FILE` the fresh numbers are also
/// compared to a committed reference (the CI bench-smoke gate), failing
/// on a single-thread put/get regression beyond `--tolerance`.
fn bench_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["smoke", "check-against", "tolerance"])?;
    let group = match args.positionals.as_slice() {
        [] | [_] => args.positionals.first().map_or("hotpath", String::as_str),
        more => {
            return Err(ParseError(format!(
                "bench takes one group name, got {}",
                more.len()
            )))
        }
    };
    if group != "hotpath" && group != "placement" && group != "modelcheck" {
        return Err(ParseError(format!(
            "unknown bench group `{group}` (available: hotpath, placement, modelcheck)"
        )));
    }
    let smoke: bool = args.get_or("smoke", false)?;
    let tolerance: f64 = args.get_or("tolerance", 0.20)?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(ParseError("--tolerance must be within [0, 1)".into()));
    }
    // Read the reference before measuring: a bad path should fail fast,
    // not after the benchmark ran.
    let reference = match args.options.get("check-against") {
        Some(path) => Some(
            std::fs::read_to_string(path)
                .map_err(|e| ParseError(format!("cannot read --check-against {path}: {e}")))?,
        ),
        None => None,
    };
    if group == "modelcheck" {
        // Schedule counts are deterministic, so the check is exact —
        // `--tolerance` only applies to the wall-clock bench groups.
        let report = crate::bench_mc::run(smoke);
        let mut out = report.to_json();
        if let Some(reference) = reference {
            let verdict =
                crate::bench_mc::check_against(&report, &reference).map_err(ParseError)?;
            out.push('\n');
            out.push_str(&verdict);
        }
        return Ok(out);
    }
    if group == "placement" {
        let report = ech_bench::placement::run(smoke).map_err(ParseError)?;
        let mut out = report.to_json();
        if let Some(reference) = reference {
            let verdict = ech_bench::placement::check_against(&report, &reference, tolerance)
                .map_err(ParseError)?;
            out.push('\n');
            out.push_str(&verdict);
        }
        return Ok(out);
    }
    let report = ech_bench::hotpath::run(smoke);
    let mut out = report.to_json();
    if let Some(reference) = reference {
        let verdict = ech_bench::hotpath::check_against(&report, &reference, tolerance)
            .map_err(ParseError)?;
        out.push('\n');
        out.push_str(&verdict);
    }
    Ok(out)
}

/// `ech lint`: delegate to the analyzer's CLI. The analyzer prints its
/// diagnostics directly and reports failure through the exit code, so
/// this returns an empty output string on success.
fn lint_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["root", "baseline", "deny-new", "write-baseline", "json"])?;
    let mut argv: Vec<String> = vec!["--root".into(), args.str_or("root", ".").to_owned()];
    if let Some(b) = args.options.get("baseline") {
        argv.push("--baseline".into());
        argv.push(b.clone());
    }
    if args.get_or("deny-new", false)? {
        argv.push("--deny-new".into());
    }
    if args.get_or("write-baseline", false)? {
        argv.push("--write-baseline".into());
    }
    if args.get_or("json", false)? {
        argv.push("--json".into());
    }
    let code = ech_analyzer::run_cli(&argv);
    if code != 0 {
        return Err(ParseError(format!("lint failed with exit code {code}")));
    }
    Ok(String::new())
}

/// `ech modelcheck`: run the registered interleaving models (see
/// [`crate::mc_models`]) and report one line per model. Regular models
/// must pass every explored schedule; the seeded-bug model inverts the
/// verdict — the checker must *find* its failure and print the trace,
/// which `--replay` then reproduces deterministically.
fn modelcheck_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&[
        "model",
        "models",
        "weak",
        "msg",
        "msg-budget",
        "lincheck",
        "bound",
        "random",
        "seed",
        "iters",
        "replay",
        "max-preemptions",
        "max-schedules",
        "no-reduce",
        "stats",
        "stats-json",
    ])?;
    let weak: bool = args.get_or("weak", false)?;
    let msg: bool = args.get_or("msg", false)?;
    let lincheck: bool = args.get_or("lincheck", false)?;
    let no_reduce: bool = args.get_or("no-reduce", false)?;
    let stats: bool = args.get_or("stats", false)?;
    // `--bound` is the short alias for `--max-preemptions`; without
    // either flag every model runs at its own declared bound.
    let bound_override: Option<usize> =
        if args.options.contains_key("bound") || args.options.contains_key("max-preemptions") {
            Some(args.get_or("bound", args.get_or("max-preemptions", 2)?)?)
        } else {
            None
        };
    // Same shape for the message-fault budget: `--msg-budget` pins it
    // for the whole run, otherwise each model's declared budget applies
    // (zero for the memory-protocol models, so `--msg` sweeps stay
    // affordable).
    let budget_override: Option<usize> = if args.options.contains_key("msg-budget") {
        Some(args.get_or("msg-budget", 1)?)
    } else {
        None
    };
    let max_schedules: usize = args.get_or("max-schedules", 20_000)?;
    if let Some(trace) = args.options.get("replay") {
        // A v3 trace carries its own memory mode; an explicit `--weak`
        // is only accepted when it agrees. `--lincheck` is not recorded
        // in traces (recording adds no scheduling decisions), so a
        // history violation replays under the same flag that found it.
        let explicit_weak = args.options.contains_key("weak").then_some(weak);
        return modelcheck_replay(trace, explicit_weak, lincheck);
    }
    let random: bool = args.get_or("random", false)?;
    let seed: u64 = args.get_or("seed", 0xec11)?;
    let iters: usize = args.get_or("iters", 400)?;
    let selected: Vec<&'static crate::mc_models::Model> =
        match (args.options.get("model"), args.options.get("models")) {
            (Some(_), Some(_)) => {
                return Err(ParseError(
                    "--model and --models are mutually exclusive".into(),
                ))
            }
            (Some(name), None) => vec![crate::mc_models::find(name).ok_or_else(|| {
                ParseError(format!(
                    "unknown model `{name}`; available models:\n{}",
                    crate::mc_models::MODELS
                        .iter()
                        .map(|m| format!("  {} — {}", m.name, m.about))
                        .collect::<Vec<_>>()
                        .join("\n")
                ))
            })?],
            (None, Some(pat)) => {
                let hits: Vec<&'static crate::mc_models::Model> = crate::mc_models::MODELS
                    .iter()
                    .filter(|m| glob_match(pat, m.name))
                    .collect();
                if hits.is_empty() {
                    return Err(ParseError(format!(
                        "--models `{pat}` matches no model; available models:\n{}",
                        crate::mc_models::MODELS
                            .iter()
                            .map(|m| format!("  {} — {}", m.name, m.about))
                            .collect::<Vec<_>>()
                            .join("\n")
                    )));
                }
                hits
            }
            (None, None) => crate::mc_models::MODELS.iter().collect(),
        };
    let mode = if weak {
        "store-buffer weak memory"
    } else {
        "sequentially consistent"
    };
    let fates = if msg {
        ", message fates enumerated"
    } else {
        ""
    };
    let histories = if lincheck {
        ", histories lincheck-verified"
    } else {
        ""
    };
    let bound_desc = match bound_override {
        Some(b) => format!("preemption bound {b}"),
        None => "per-model preemption bounds".to_owned(),
    };
    let reduction = if no_reduce {
        ", reduction off"
    } else {
        ", partial-order reduction"
    };
    let mut out = String::new();
    if random {
        writeln!(
            out,
            "modelcheck: seeded random exploration (seed {seed}, {iters} schedules per model, {mode}{fates}{histories})"
        )
        .expect("write to string");
    } else {
        writeln!(
            out,
            "modelcheck: bounded exhaustive exploration ({bound_desc}, {mode}{fates}{reduction}{histories})"
        )
        .expect("write to string");
    }
    let mut problems: Vec<String> = Vec::new();
    let mut stats_rows: Vec<String> = Vec::new();
    for m in selected {
        let msg_budget = if msg {
            budget_override.unwrap_or(m.msg_budget)
        } else {
            0
        };
        let cfg = ech_modelcheck::Config {
            max_preemptions: bound_override.unwrap_or(m.bound),
            max_schedules,
            weak,
            msg_budget,
            reduce: !no_reduce,
        };
        let expect = m.expects_failure_with(weak, msg_budget > 0, lincheck);
        // Expected-failure models always run the deterministic DFS: its
        // point is *finding* the planted violation, and the DFS both
        // finds it within a handful of schedules and reports the same
        // trace every run.
        let report = match (lincheck, random && !expect) {
            (true, true) => {
                ech_modelcheck::explore_random(m.name, &cfg, seed, iters, lincheck_wrapped(m))
            }
            (true, false) => ech_modelcheck::explore(m.name, &cfg, lincheck_wrapped(m)),
            (false, true) => ech_modelcheck::explore_random(m.name, &cfg, seed, iters, m.setup),
            (false, false) => ech_modelcheck::explore(m.name, &cfg, m.setup),
        };
        stats_rows.push(format!(
            "    {{\"model\": \"{}\", \"pair\": \"{}\", \"verdict\": \"{}\", \"schedules\": {}, \"blocked\": {}, \"exhausted\": {}}}",
            m.name,
            m.pair,
            match (&report.failure, expect) {
                (None, false) => "pass",
                (Some(_), true) => "caught",
                (Some(_), false) => "fail",
                (None, true) => "missed",
            },
            report.schedules,
            report.blocked,
            report.exhausted
        ));
        match (&report.failure, expect) {
            (None, false) => {
                let coverage = if report.exhausted {
                    "exhaustive"
                } else if random {
                    "sampled"
                } else {
                    problems.push(format!(
                        "{}: schedule budget exhausted before full coverage",
                        m.name
                    ));
                    "TRUNCATED"
                };
                // A weak-only mutant passing the sequentially consistent
                // mode is the expected asymmetry, not a clean bill: say
                // so, so the report is not mistaken for full coverage.
                let note = if m.weak_only() && !weak {
                    " [weak-only mutant: stale publication needs --weak]"
                } else if m.msg_only() && msg_budget == 0 {
                    " [message-only mutant: fault enumeration needs --msg]"
                } else if m.lincheck_only() && !lincheck {
                    " [history mutant: order violation needs --lincheck]"
                } else {
                    ""
                };
                writeln!(
                    out,
                    "  {:<30} pass    {:>6} schedules ({coverage}){note}",
                    m.name, report.schedules
                )
                .expect("write to string");
            }
            (Some(f), true) => {
                writeln!(
                    out,
                    "  {:<30} caught  {:>6} schedules (seeded bug, expected)",
                    m.name, report.schedules
                )
                .expect("write to string");
                writeln!(out, "    {}", f.message).expect("write to string");
                writeln!(out, "    trace: {}", f.trace).expect("write to string");
            }
            (Some(f), false) => {
                writeln!(
                    out,
                    "  {:<30} FAIL    {:>6} schedules",
                    m.name, report.schedules
                )
                .expect("write to string");
                writeln!(out, "    {}", f.message).expect("write to string");
                writeln!(out, "    trace: {}", f.trace).expect("write to string");
                problems.push(format!("{}: {}", m.name, f.message));
            }
            (None, true) => {
                writeln!(
                    out,
                    "  {:<30} MISSED  {:>6} schedules (seeded bug not found)",
                    m.name, report.schedules
                )
                .expect("write to string");
                problems.push(format!("{}: seeded bug not found", m.name));
            }
        }
        if stats {
            writeln!(
                out,
                "    stats: {} schedules run, {} abandoned by sleep sets",
                report.schedules, report.blocked
            )
            .expect("write to string");
        }
    }
    // The JSON stats sidecar is written on failing runs too: a sweep
    // that died half-green is exactly when CI wants the per-model
    // verdicts machine-readable.
    if let Some(path) = args.options.get("stats-json") {
        let json = format!(
            "{{\n  \"mode\": {{\"weak\": {weak}, \"msg\": {msg}, \"lincheck\": {lincheck}, \"random\": {random}}},\n  \"models\": [\n{}\n  ]\n}}\n",
            stats_rows.join(",\n")
        );
        std::fs::write(path, json)
            .map_err(|e| ParseError(format!("cannot write --stats-json {path}: {e}")))?;
    }
    if problems.is_empty() {
        writeln!(out, "modelcheck: ok").expect("write to string");
        Ok(out)
    } else {
        Err(ParseError(format!(
            "modelcheck failed: {}\n{out}",
            problems.join("; ")
        )))
    }
}

/// `*`/`?` wildcard match for `--models` (no character classes; model
/// names are flat kebab-case, so this is all a sweep filter needs).
fn glob_match(pat: &str, name: &str) -> bool {
    let (p, n) = (pat.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            // Backtrack: let the last `*` swallow one more byte.
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Wrap a model's setup for `--lincheck`: install a fresh history
/// recording before the scenario builds (setup writes become the
/// sequential prefix of every schedule's history) and append an
/// after-hook — behind the model's own post-state checks — that takes
/// the recording and fails the schedule when the Wing–Gong checker
/// finds no linearization order. The panic message carries the
/// replayable `l1:` witness, so the violation rides the same trace
/// plumbing as every other counterexample.
fn lincheck_wrapped(m: &'static crate::mc_models::Model) -> impl Fn(&mut ech_modelcheck::Env) {
    move |env: &mut ech_modelcheck::Env| {
        ech_lincheck::recorder::install();
        (m.setup)(env);
        let name = m.name;
        env.after(move || {
            let rec = ech_lincheck::recorder::take().expect("lincheck recording installed");
            match ech_lincheck::check_kv(&rec.events, ech_lincheck::DEFAULT_BUDGET) {
                ech_lincheck::Outcome::Linearizable { .. } => {}
                ech_lincheck::Outcome::NonLinearizable { key, witness } => panic!(
                    "recorded history is not linearizable (key {key}); witness: {}",
                    ech_lincheck::render_witness(name, &witness)
                ),
                ech_lincheck::Outcome::BudgetExceeded { key, budget } => panic!(
                    "lincheck search overran its node budget on key {key} ({budget} configurations)"
                ),
            }
        });
    }
}

/// `ech lincheck`: record a seeded, deterministic stress history against
/// a live cluster on a virtual clock and check it with the Wing–Gong
/// linearizability checker — the offline smoke for the recording +
/// checking pipeline (CI runs it twice and compares the reports
/// byte-identically). With `--witness` it instead re-verifies a rendered
/// `l1:` witness line, the artifact `--lincheck` model runs and the
/// replay regression tests carry.
fn lincheck_cmd(args: &Args) -> Result<String, ParseError> {
    use bytes::Bytes;
    use ech_cluster::fault::{splitmix64, FaultPlan, VirtualClock};
    use ech_cluster::{Cluster, ClusterConfig};
    use std::sync::Arc;
    args.allow_only(&["witness", "seed", "ops", "keys"])?;
    if let Some(line) = args.options.get("witness") {
        return match ech_lincheck::verify_witness(line) {
            Ok(()) => Ok("witness verified: minimal, canonical, and non-linearizable\n".to_owned()),
            Err(e) => Err(ParseError(format!("witness rejected: {e}"))),
        };
    }
    let seed: u64 = args.get_or("seed", 0x11C)?;
    let ops: usize = args.get_or("ops", 120)?;
    let keys: u64 = args.get_or("keys", 4)?;
    if ops == 0 {
        return Err(ParseError("--ops must be at least 1".into()));
    }
    if keys == 0 {
        return Err(ParseError("--keys must be at least 1".into()));
    }
    let mut cfg = ClusterConfig::paper();
    cfg.servers = 3;
    cfg.replicas = 2;
    let c =
        Cluster::with_faults_and_clock(cfg, FaultPlan::default(), Arc::new(VirtualClock::new()));
    ech_lincheck::recorder::install();
    // A seeded op mix over a handful of keys: overwrites (so the
    // last-write-wins register has history to get wrong), reads, power
    // resizes (degraded-write windows), and heal/drain passes. Scripted
    // single-threaded: the point is the recording and checking
    // pipeline, not schedule exploration — `modelcheck --lincheck`
    // covers the concurrent side.
    let mut active = 3usize;
    for i in 0..ops {
        let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let oid = ObjectId(1 + r % keys);
        match (r >> 8) % 10 {
            0..=4 => {
                let _ = c.put(oid, Bytes::from(format!("lincheck-{i}")));
            }
            5..=7 => {
                let _ = c.get(oid);
            }
            8 => {
                active = if active == 3 { 2 } else { 3 };
                c.resize(active);
            }
            _ => {
                if r & 1 == 0 {
                    c.heal_dirty();
                } else {
                    c.reintegrate_all();
                }
            }
        }
    }
    let rec = ech_lincheck::recorder::take().expect("recording installed above");
    let recorded_ops = rec
        .events
        .iter()
        .filter(|e| matches!(e.kind, ech_lincheck::EventKind::Invoke(_)))
        .count();
    let mut out = String::new();
    writeln!(
        out,
        "lincheck: seed {seed}, {ops} ops scripted over {keys} keys (3 servers, 2 replicas)"
    )
    .expect("write to string");
    writeln!(
        out,
        "lincheck: recorded {} events ({recorded_ops} operations)",
        rec.events.len()
    )
    .expect("write to string");
    match ech_lincheck::check_kv(&rec.events, ech_lincheck::DEFAULT_BUDGET) {
        ech_lincheck::Outcome::Linearizable { keys, ops, states } => {
            writeln!(
                out,
                "lincheck: linearizable ({keys} keys, {ops} keyed ops, {states} configurations)"
            )
            .expect("write to string");
            Ok(out)
        }
        ech_lincheck::Outcome::NonLinearizable { key, witness } => Err(ParseError(format!(
            "lincheck: history NOT linearizable (key {key})\n  witness: {}\n{out}",
            ech_lincheck::render_witness("stress", &witness)
        ))),
        ech_lincheck::Outcome::BudgetExceeded { key, budget } => Err(ParseError(format!(
            "lincheck: node budget exceeded on key {key} ({budget} configurations)\n{out}"
        ))),
    }
}

/// `ech modelcheck --replay TRACE`: re-execute one recorded schedule.
/// The v3 trace names its model *and* the memory mode, preemption bound
/// and message-fault budget it was recorded under; the scheduler forces
/// the recorded decisions under that same configuration, so the same
/// violation reproduces byte-identically (the counterexample replay
/// tests run this twice and compare outputs). v1/v2 traces are
/// rejected: they do not record everything the schedule depends on, so
/// a replay could silently diverge.
fn modelcheck_replay(
    trace: &str,
    explicit_weak: Option<bool>,
    lincheck: bool,
) -> Result<String, ParseError> {
    let parsed = ech_modelcheck::parse_trace(trace).map_err(ParseError)?;
    if let Some(w) = explicit_weak {
        if w != parsed.weak {
            return Err(ParseError(format!(
                "--weak {w} contradicts the trace's recorded memory mode `{}`; a trace \
                 replays under the mode that produced it",
                if parsed.weak { "weak" } else { "sc" }
            )));
        }
    }
    let model = crate::mc_models::find(&parsed.model)
        .ok_or_else(|| ParseError(format!("trace names unknown model `{}`", parsed.model)))?;
    // A trace recorded under a different bound or budget than the model
    // now declares replays against a scheduler configured differently
    // from the one that produced it — the prefix may name choices that
    // no longer exist at the same decision points. Mismatches are hard
    // errors, same policy as a mode-contradicting `--weak`.
    if parsed.bound != model.bound {
        return Err(ParseError(format!(
            "trace records preemption bound {} but model `{}` declares bound {}; \
             a trace replays under the configuration that produced it",
            parsed.bound, model.name, model.bound
        )));
    }
    if parsed.msg_budget != 0 && parsed.msg_budget != model.msg_budget {
        return Err(ParseError(format!(
            "trace records message budget {} but model `{}` declares budget {}; \
             a trace replays under the configuration that produced it",
            parsed.msg_budget, model.name, model.msg_budget
        )));
    }
    let cfg = ech_modelcheck::Config {
        max_preemptions: parsed.bound,
        max_schedules: 1,
        weak: parsed.weak,
        msg_budget: parsed.msg_budget,
        // Replay bypasses reduction entirely: the prefix pins every
        // decision, so there is nothing to prune and no sleep state to
        // consult.
        reduce: false,
    };
    // History recording adds no scheduling decisions, so a `--lincheck`
    // replay forces the identical prefix — only the post-state check
    // differs, which is exactly what reproduces a history violation.
    let report = if lincheck {
        ech_modelcheck::replay(model.name, &cfg, parsed.prefix, lincheck_wrapped(model))
    } else {
        ech_modelcheck::replay(model.name, &cfg, parsed.prefix, model.setup)
    };
    let mut out = String::new();
    match &report.failure {
        Some(f) => {
            writeln!(out, "replay {}: violation reproduced", model.name).expect("write to string");
            writeln!(out, "  {}", f.message).expect("write to string");
            writeln!(out, "  trace: {}", f.trace).expect("write to string");
        }
        None => {
            writeln!(out, "replay {}: no violation at this schedule", model.name)
                .expect("write to string");
        }
    }
    Ok(out)
}

fn layout(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["servers", "base", "primaries", "data-gb"])?;
    let n: usize = args.get_or("servers", 10)?;
    if n == 0 {
        return Err(ParseError("--servers must be at least 1".into()));
    }
    let base: u32 = args.get_or("base", 10_000)?;
    let p: usize = args.get_or("primaries", ech_core::layout::primary_count(n))?;
    let data_gb: u64 = args.get_or("data-gb", 1_000)?;
    if p == 0 || p > n || (base as usize) < n {
        return Err(ParseError(format!(
            "invalid layout: servers {n}, primaries {p}, base {base}"
        )));
    }
    let layout = Layout::equal_work_with_primaries(n, base, p);
    const GB: u64 = 1 << 30;
    let tiers = [
        2000 * GB,
        1500 * GB,
        1000 * GB,
        750 * GB,
        500 * GB,
        320 * GB,
    ];
    let plan = CapacityPlan::fit(&layout, &tiers, data_gb * GB, 0.2);
    let mut out = String::new();
    writeln!(out, "rank,role,vnodes,share,capacity_gb").expect("write to string");
    for (i, (&w, f)) in layout
        .weights()
        .iter()
        .zip(layout.expected_fractions())
        .enumerate()
    {
        let server = ech_core::ids::ServerId(i as u32);
        writeln!(
            out,
            "{},{},{},{:.4},{}",
            i + 1,
            if layout.is_primary(server) {
                "primary"
            } else {
                "secondary"
            },
            w,
            f,
            plan.capacity(server) / GB
        )
        .expect("write to string");
    }
    Ok(out)
}

fn place_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["servers", "oid", "replicas", "active", "strategy", "base"])?;
    let n: usize = args.get_or("servers", 10)?;
    let oid: u64 = args.get_or("oid", 0)?;
    let r: usize = args.get_or("replicas", 2)?;
    let active: usize = args.get_or("active", n)?;
    let base: u32 = args.get_or("base", 10_000)?;
    let strategy = match args.str_or("strategy", "primary") {
        "primary" => Strategy::Primary,
        "original" => Strategy::Original,
        other => return Err(ParseError(format!("unknown strategy {other}"))),
    };
    if active == 0 || active > n {
        return Err(ParseError(format!("--active {active} out of 1..={n}")));
    }
    let layout = match strategy {
        Strategy::Primary => Layout::equal_work(n, base),
        Strategy::Original => Layout::uniform(n, base),
    };
    let ring = layout.build_ring();
    let membership = MembershipTable::active_prefix(n, active);
    let placement = place(strategy, &ring, &layout, &membership, ObjectId(oid), r)
        .map_err(|e| ParseError(format!("placement failed: {e}")))?;
    let mut out = String::new();
    writeln!(out, "oid,replica,server,role").expect("write to string");
    for (i, &s) in placement.servers().iter().enumerate() {
        writeln!(
            out,
            "{},{},{},{}",
            oid,
            i + 1,
            s.index() + 1,
            if layout.is_primary(s) {
                "primary"
            } else {
                "secondary"
            }
        )
        .expect("write to string");
    }
    Ok(out)
}

fn parse_mode(s: &str) -> Result<ElasticityMode, ParseError> {
    Ok(match s {
        "no-resizing" => ElasticityMode::NoResizing,
        "original" => ElasticityMode::OriginalCh,
        "full" => ElasticityMode::PrimaryFull,
        "selective" => ElasticityMode::PrimarySelective,
        other => return Err(ParseError(format!("unknown mode {other}"))),
    })
}

fn three_phase_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["mode", "valley"])?;
    let mode = parse_mode(args.str_or("mode", "selective"))?;
    let valley: f64 = args.get_or("valley", 120.0)?;
    if !(1.0..=3600.0).contains(&valley) {
        return Err(ParseError(
            "--valley must be within 1..=3600 seconds".into(),
        ));
    }
    let run = three_phase(mode, valley, 2_000.0);
    let mut out = String::new();
    writeln!(out, "time_s,throughput_mbps,active,powered,phase").expect("write to string");
    for s in run.samples.iter().step_by(4) {
        writeln!(
            out,
            "{:.1},{:.1},{},{},{}",
            s.time,
            s.client_throughput / 1e6,
            s.active,
            s.powered,
            s.phase
        )
        .expect("write to string");
    }
    writeln!(
        out,
        "# recovery_delay_s={:.1} migrated_gb={:.2} machine_seconds={:.0}",
        run.recovery_delay(0.8).unwrap_or(0.0),
        run.migrated_bytes / 1e9,
        run.machine_seconds
    )
    .expect("write to string");
    Ok(out)
}

fn resize_agility_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["mode", "objects"])?;
    let mode = parse_mode(args.str_or("mode", "original"))?;
    let objects: usize = args.get_or("objects", 3_500)?;
    let run = resize_agility(mode, &fig2_schedule(), 330.0, objects);
    let mut out = String::new();
    writeln!(out, "time_s,ideal,actual").expect("write to string");
    for i in (0..run.times.len()).step_by(10) {
        writeln!(
            out,
            "{:.1},{},{}",
            run.times[i], run.ideal[i], run.actual[i]
        )
        .expect("write to string");
    }
    writeln!(out, "# mean_gap={:.2}", run.mean_gap()).expect("write to string");
    Ok(out)
}

fn trace_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["name"])?;
    let trace = match args.str_or("name", "cc-a") {
        "cc-a" => synth::cc_a(),
        "cc-b" => synth::cc_b(),
        "cc-c" => synth::cc_c(),
        "cc-d" => synth::cc_d(),
        "cc-e" => synth::cc_e(),
        other => return Err(ParseError(format!("unknown trace {other}"))),
    };
    let params = PolicyParams::for_trace(&trace);
    let analysis = analyze(&trace, &params);
    let mut out = String::new();
    writeln!(out, "policy,machine_hours,relative_to_ideal").expect("write to string");
    for k in PolicyKind::all() {
        writeln!(
            out,
            "{},{:.0},{:.3}",
            k.label(),
            analysis.result(k).machine_hours,
            analysis.relative_machine_hours(k)
        )
        .expect("write to string");
    }
    Ok(out)
}

fn latency_cmd(args: &Args) -> Result<String, ParseError> {
    use ech_sim::des::{read_latency_under_reintegration, DesConfig, MigrationLoad};
    args.allow_only(&["migration", "rate"])?;
    let rate: f64 = args.get_or("rate", 40.0)?;
    if rate <= 0.0 {
        return Err(ParseError("--rate must be positive".into()));
    }
    let migration = match args.str_or("migration", "selective") {
        "none" => MigrationLoad::None,
        "selective" => MigrationLoad::RateLimited {
            bytes_per_sec: rate * 1e6,
        },
        "unthrottled" => MigrationLoad::Unthrottled,
        other => return Err(ParseError(format!("unknown migration mode {other}"))),
    };
    let s = read_latency_under_reintegration(
        DesConfig::paper(),
        6,
        4_000,
        2_000,
        40.0,
        120.0,
        migration,
    );
    let mut out = String::new();
    writeln!(out, "metric,milliseconds").expect("write to string");
    for (name, v) in [
        ("mean", s.mean),
        ("p50", s.p50),
        ("p90", s.p90),
        ("p99", s.p99),
        ("max", s.max),
    ] {
        writeln!(out, "{},{:.2}", name, v * 1e3).expect("write to string");
    }
    writeln!(out, "# requests={}", s.count).expect("write to string");
    Ok(out)
}

fn chaos_cmd(args: &Args) -> Result<String, ParseError> {
    use bytes::Bytes;
    use ech_cluster::fault::splitmix64;
    use ech_cluster::{
        BreakerConfig, Cluster, ClusterConfig, FaultPlan, LinkFaultSpec, NetPlan,
        PartitionDirection, PartitionWindow, VirtualClock,
    };
    use std::sync::Arc;
    use std::time::Duration;
    args.allow_only(&[
        "seed",
        "objects",
        "error-rate",
        "crash1",
        "crash2",
        "servers",
        "replicas",
        "net",
    ])?;
    let seed: u64 = args.get_or("seed", 0xEC0_5EED)?;
    let objects: u64 = args.get_or("objects", 200)?;
    let servers: usize = args.get_or("servers", 10)?;
    let replicas: usize = args.get_or("replicas", 3)?;
    let rate: f64 = args.get_or("error-rate", 0.08)?;
    let crash1: u64 = args.get_or("crash1", 12)?;
    let crash2: u64 = args.get_or("crash2", 25)?;
    let net: bool = args.get_or("net", false)?;
    if servers < 2 {
        return Err(ParseError("--servers must be at least 2".into()));
    }
    if replicas == 0 || replicas > servers {
        return Err(ParseError(format!(
            "--replicas {replicas} out of 1..={servers}"
        )));
    }
    if !(0.0..1.0).contains(&rate) {
        return Err(ParseError("--error-rate must be within [0, 1)".into()));
    }
    if objects == 0 {
        return Err(ParseError("--objects must be at least 1".into()));
    }

    // Transient-error windows must outlive both crash events so every
    // planned fault provably fires before the convergence phase.
    let window = 150u64.max(crash1.max(crash2) + 1);
    let node_a = (splitmix64(seed) % servers as u64) as usize;
    let node_b = ((node_a as u64 + 1 + splitmix64(seed ^ 1) % (servers as u64 - 1))
        % servers as u64) as usize;
    let mut plan = FaultPlan::uniform_io_errors(servers, seed, rate);
    for spec in &mut plan.node_faults {
        spec.io_error_until_op = window;
    }
    plan.node_faults[node_a].crash_at_op = Some(crash1);
    plan.node_faults[node_b].crash_at_op = Some(crash2);

    // `--net true` layers the message fault plane on top of the disk
    // faults: flaky links everywhere, plus an asymmetric partition
    // cutting requests into the high-index ~30% of the ring for the
    // whole write phase (healed before convergence). Breakers and the
    // per-operation deadline budget come on with it.
    let breaker_cooldown = Duration::from_millis(10);
    if net {
        let dark = servers.div_ceil(3).min(servers - 1);
        plan.net = Some(NetPlan {
            seed,
            default_link: LinkFaultSpec {
                drop_prob: 0.02,
                dup_prob: 0.01,
                reorder_prob: 0.01,
                delay: Some((Duration::from_micros(20), Duration::from_micros(120))),
            },
            partitions: vec![PartitionWindow {
                from: Duration::ZERO,
                until: Duration::MAX, // healed explicitly after the write phase
                isolated: ((servers - dark) as u32..servers as u32).collect(),
                direction: PartitionDirection::Inbound,
            }],
            rpc_timeout: Duration::from_millis(2),
            ..NetPlan::default()
        });
    }

    let mut cfg = ClusterConfig::paper();
    cfg.servers = servers;
    cfg.replicas = replicas;
    if net {
        cfg.op_deadline = Some(Duration::from_millis(100));
        cfg.breaker = Some(BreakerConfig {
            failure_threshold: 4,
            cooldown: breaker_cooldown,
        });
    }
    // A virtual clock makes the whole drill wall-clock-free: retry
    // backoff, brown-out waits and hedged-read thresholds advance the
    // same logical nanoseconds on every run, so replays are exact.
    let clock = Arc::new(VirtualClock::new());
    let c = Cluster::with_faults_and_clock(cfg, plan, clock.clone());
    let value = |i: u64| Bytes::from(format!("chaos-object-{i}"));

    // Write phase under fire, with power resizes at the quarter marks.
    let mut acked: Vec<u64> = Vec::new();
    for i in 0..objects {
        if objects >= 8 {
            if i == objects / 4 {
                c.resize(replicas.max(servers / 2));
            } else if i == objects / 2 {
                c.resize(replicas.max(3 * servers / 4));
            } else if i == 3 * objects / 4 {
                c.resize(servers);
            }
        }
        let oid = ObjectId(i);
        let mut ok = false;
        for attempt in 0..3 {
            match c.put(oid, value(i)) {
                Ok(_) => {
                    ok = true;
                    break;
                }
                Err(_) if attempt < 2 => {
                    // A failed write may mean a silent crash: fix the
                    // membership, re-replicate, and try again.
                    c.detect_and_mark_crashed();
                    c.repair();
                }
                Err(_) => {}
            }
        }
        if ok {
            acked.push(i);
        }
        if !c.detect_and_mark_crashed().is_empty() {
            c.repair();
        }
    }

    // Exhaust every node's fault window (op counters are the fault
    // clock), firing any crash the workload did not reach.
    let inj = c.fault_injector().expect("chaos cluster has an injector");
    for (i, node) in c.nodes().iter().enumerate() {
        while inj.node_ops(i) < window {
            let _ = node.get(ObjectId(u64::MAX));
        }
    }

    // Lift the partition before converging, and let the breaker
    // cooldowns elapse — the virtual clock only moves when something
    // sleeps, and breaker fast-fails deliberately don't.
    if let Some(fabric) = c.net_fabric() {
        fabric.heal_partitions();
        clock.advance(breaker_cooldown * 2);
    }

    // Converge: fix membership, re-replicate, return to full power, heal
    // degraded writes and drain the dirty table.
    c.detect_and_mark_crashed();
    c.repair();
    c.resize(servers);
    c.repair();
    c.reintegrate_all();
    c.repair();

    let readable = acked
        .iter()
        .filter(|&&i| c.get(ObjectId(i)).map(|v| v == value(i)).unwrap_or(false))
        .count();
    let lost = acked.len() - readable;
    let faults = c.fault_stats().expect("chaos cluster has fault stats");
    let path = c.counters();
    let mut out = String::new();
    writeln!(out, "metric,value").expect("write to string");
    for (name, v) in [
        ("writes_attempted", objects),
        ("writes_acked", acked.len() as u64),
        ("io_errors_injected", faults.io_errors),
        ("crashes_injected", faults.crashes),
        ("delays_injected", faults.delays),
        ("kv_unavailable_injected", faults.kv_unavailable),
        ("retries", path.retries),
        ("quorum_degraded_acks", path.quorum_acks),
        ("replicas_missed", path.replicas_missed),
        ("hedged_reads", path.hedged_reads),
        ("unavailable_errors", path.unavailable_errors),
        ("under_replicated", c.under_replicated() as u64),
        ("dirty_entries", c.dirty_len() as u64),
        ("acked_readable", readable as u64),
    ] {
        writeln!(out, "{name},{v}").expect("write to string");
    }
    // Message-plane metrics only exist when `--net true` installed the
    // fabric; the base report stays byte-identical without it.
    if let Some(ns) = c.net_stats() {
        let bs = c.breaker_stats().expect("--net enables breakers");
        for (name, v) in [
            ("net_sends", ns.sends),
            ("net_dropped", ns.dropped),
            ("net_duplicated", ns.duplicated),
            ("net_delayed", ns.delayed),
            ("net_reordered", ns.reordered),
            ("net_partitioned_sends", ns.partitioned_sends),
            ("breaker_trips", bs.trips),
            ("breaker_fastfails", bs.fastfails),
            ("deadline_exceeded", path.deadline_exceeded),
        ] {
            writeln!(out, "{name},{v}").expect("write to string");
        }
    }
    let verdict = if lost == 0 {
        "SURVIVED".to_owned()
    } else {
        format!("LOST {lost}")
    };
    writeln!(
        out,
        "# verdict={verdict} seed={seed} crash_nodes={},{}",
        node_a + 1,
        node_b + 1
    )
    .expect("write to string");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn run_line(line: &str) -> Result<String, ParseError> {
        run(&parse(line.split_whitespace().map(str::to_owned)).unwrap())
    }

    #[test]
    fn help_lists_all_commands() {
        let h = run_line("help").unwrap();
        for cmd in [
            "layout",
            "place",
            "three-phase",
            "resize-agility",
            "trace",
            "latency",
            "chaos",
            "bench",
            "lint",
            "modelcheck",
            "lincheck",
        ] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
    }

    /// The protocol models must hold on *every* schedule within the
    /// preemption bound — truncated coverage or a single violating
    /// interleaving fails the run.
    #[test]
    fn modelcheck_default_models_pass_exhaustively() {
        for model in ["publish-vs-read", "cache-coherence", "cache-counters"] {
            let out = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(out.contains("pass"), "{model} did not pass:\n{out}");
            assert!(out.contains("(exhaustive)"), "{model} truncated:\n{out}");
        }
    }

    #[test]
    fn modelcheck_reintegration_model_passes_exhaustively() {
        let out = run_line("modelcheck --model reintegrate-vs-resize").unwrap();
        assert!(out.contains("pass"), "not passing:\n{out}");
        assert!(out.contains("(exhaustive)"), "truncated:\n{out}");
    }

    /// The counterexample pipeline end to end: the checker finds the
    /// deliberately seeded stamp-before-publish bug within a small
    /// schedule budget, and replaying its reported trace reproduces the
    /// identical violation byte for byte, twice.
    #[test]
    fn modelcheck_finds_seeded_bug_and_replays_it_deterministically() {
        let out = run_line("modelcheck --model seeded-stamp-bug --max-schedules 200").unwrap();
        assert!(
            out.contains("caught"),
            "seeded bug not found within 200 schedules:\n{out}"
        );
        let trace_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("trace: "))
            .expect("report carries a trace");
        let trace = trace_line.trim_start().trim_start_matches("trace: ");
        let replay_cmd = format!("modelcheck --replay {trace}");
        let first = run_line(&replay_cmd).unwrap();
        let second = run_line(&replay_cmd).unwrap();
        assert!(
            first.contains("violation reproduced"),
            "replay lost the violation:\n{first}"
        );
        assert_eq!(first, second, "replay is not deterministic");
        // The reproduced trace round-trips: replay reports the same
        // schedule it was given.
        assert!(first.contains(trace), "replay rewrote the trace:\n{first}");
    }

    /// Seeded random mode (the CI smoke gate) is a pure function of the
    /// seed: identical invocations must render identical reports.
    #[test]
    fn modelcheck_random_mode_is_deterministic() {
        let line = "modelcheck --model cache-counters --random true --seed 7 --iters 50";
        let a = run_line(line).unwrap();
        let b = run_line(line).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("(sampled)"), "random mode not sampled:\n{a}");
    }

    #[test]
    fn modelcheck_rejects_unknown_models_and_traces() {
        let err = run_line("modelcheck --model no-such-model").unwrap_err();
        assert!(err.0.contains("publish-vs-read"), "error lists models");
        assert!(run_line("modelcheck --replay not-a-trace").is_err());
        assert!(run_line("modelcheck --replay v1:no-such-model:t0").is_err());
    }

    /// The fault-aware coverage models must hold on every schedule in
    /// *both* memory modes: their protocols only use sanctioned
    /// orderings, so the store-buffer simulation may not change a single
    /// verdict.
    #[test]
    fn modelcheck_coverage_models_pass_exhaustively_in_both_modes() {
        for model in [
            "quorum-write-faults",
            "hedged-read-crash",
            "worker-stop-flag",
            "reintegration-pool",
        ] {
            for mode in ["", " --weak true"] {
                let out = run_line(&format!("modelcheck --model {model}{mode}")).unwrap();
                assert!(out.contains("pass"), "{model}{mode} did not pass:\n{out}");
                assert!(
                    out.contains("(exhaustive)"),
                    "{model}{mode} truncated:\n{out}"
                );
            }
        }
    }

    /// Find a seeded mutant's counterexample (under the given memory
    /// mode) and replay its reported trace twice: both replays must
    /// reproduce the violation and render byte-identical reports. The
    /// trace itself carries the mode + bound, so the replay needs no
    /// extra flags.
    fn assert_caught_and_replayable(model: &str, weak: bool) {
        let mode = if weak { " --weak true" } else { "" };
        let out = run_line(&format!("modelcheck --model {model}{mode}")).unwrap();
        assert!(out.contains("caught"), "{model}{mode} not caught:\n{out}");
        let trace_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("trace: "))
            .expect("report carries a trace");
        let trace = trace_line.trim_start().trim_start_matches("trace: ");
        let expected_mode = if weak { "v3:weak:" } else { "v3:sc:" };
        assert!(
            trace.starts_with(expected_mode),
            "trace does not record the mode it was found under: {trace}"
        );
        let replay_cmd = format!("modelcheck --replay {trace}");
        let first = run_line(&replay_cmd).unwrap();
        let second = run_line(&replay_cmd).unwrap();
        assert!(
            first.contains("violation reproduced"),
            "{model} replay lost the violation:\n{first}"
        );
        assert_eq!(first, second, "{model} replay is not deterministic");
        assert!(
            first.contains(trace),
            "{model} replay rewrote the trace:\n{first}"
        );
    }

    /// Message-mode analogue of [`assert_caught_and_replayable`]: find
    /// the mutant's counterexample under `--msg`, check the trace
    /// records the message budget and at least one enumerated fate, and
    /// replay it byte-identically twice.
    fn assert_caught_and_replayable_msg(model: &str) {
        let out = run_line(&format!("modelcheck --model {model} --msg true")).unwrap();
        assert!(out.contains("caught"), "{model} --msg not caught:\n{out}");
        let trace_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("trace: "))
            .expect("report carries a trace");
        let trace = trace_line.trim_start().trim_start_matches("trace: ");
        assert!(
            trace.starts_with("v3:sc:") && trace.contains(":m1:"),
            "trace does not record the message budget it was found under: {trace}"
        );
        let steps = trace.rsplit(':').next().expect("trace has steps");
        assert!(
            steps.split(',').any(|s| s.starts_with('m')),
            "counterexample carries no message-fate decision: {trace}"
        );
        let replay_cmd = format!("modelcheck --replay {trace}");
        let first = run_line(&replay_cmd).unwrap();
        let second = run_line(&replay_cmd).unwrap();
        assert!(
            first.contains("violation reproduced"),
            "{model} replay lost the violation:\n{first}"
        );
        assert_eq!(first, second, "{model} replay is not deterministic");
        assert!(
            first.contains(trace),
            "{model} replay rewrote the trace:\n{first}"
        );
    }

    /// Every seeded mutant that sequentially consistent exploration can
    /// catch is caught, and its counterexample replays byte-identically.
    #[test]
    fn modelcheck_catches_and_replays_every_seq_mutant() {
        for model in [
            "quorum-dirty-bug",
            "partition-quorum-bug",
            "hedged-stale-bug",
            "reintegration-lost-replica-bug",
        ] {
            assert_caught_and_replayable(model, false);
            // The same bugs are still bugs under weak memory.
            assert_caught_and_replayable(model, true);
        }
    }

    /// The weak-memory acceptance case: the two Relaxed-publication
    /// mutants pass *exhaustively* under sequentially consistent
    /// exploration (the mode provably cannot find them — every schedule
    /// was checked) and are caught with a replayable stale-publication
    /// counterexample under `--weak`.
    #[test]
    fn modelcheck_weak_mode_catches_what_sc_provably_misses() {
        for model in ["weak-stop-flag-relaxed", "weak-view-publish-relaxed"] {
            let sc = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(sc.contains("pass"), "{model} should pass under sc:\n{sc}");
            assert!(
                sc.contains("(exhaustive)"),
                "{model} sc pass must be exhaustive to prove the miss:\n{sc}"
            );
            assert!(
                sc.contains("weak-only mutant"),
                "{model} sc report lacks the weak-only annotation:\n{sc}"
            );
            assert_caught_and_replayable(model, true);
        }
    }

    /// v3 traces refuse to replay under a contradicting explicit mode,
    /// and v1/v2 traces are rejected outright (they do not record
    /// everything the schedule depends on, so a replay could silently
    /// diverge).
    #[test]
    fn modelcheck_replay_rejects_mode_mismatch_and_legacy_traces() {
        let err =
            run_line("modelcheck --replay v3:weak:b2:m0:weak-stop-flag-relaxed:t0,t0 --weak false")
                .unwrap_err();
        assert!(
            err.0.contains("contradicts"),
            "no mode-conflict error: {}",
            err.0
        );
        let err = run_line("modelcheck --replay v1:seeded-stamp-bug:0,0,1").unwrap_err();
        assert!(
            err.0.contains("memory mode") && err.0.contains("v3"),
            "v1 rejection does not explain itself: {}",
            err.0
        );
        let err =
            run_line("modelcheck --replay v2:weak:b2:weak-stop-flag-relaxed:t0,t0").unwrap_err();
        assert!(
            err.0.contains("message fault budget") && err.0.contains("v3"),
            "v2 rejection does not explain itself: {}",
            err.0
        );
        // Agreement is fine: an explicit matching mode replays normally.
        let ok = run_line(
            "modelcheck --replay v3:weak:b2:m0:weak-stop-flag-relaxed:t0,t0,t1,t1,t1,t1 --weak true",
        )
        .unwrap();
        assert!(ok.contains("replay weak-stop-flag-relaxed"), "{ok}");
    }

    /// The message-mode acceptance case: the three message mutants pass
    /// *exhaustively* under thread-only exploration (the mode provably
    /// cannot find them — every schedule was checked and none
    /// retransmits, drops, or delays anything) and are caught with a
    /// replayable message-fate counterexample under `--msg`.
    #[test]
    fn modelcheck_msg_mode_catches_what_thread_only_provably_misses() {
        for model in [
            "msg-quorum-ack-loss-bug",
            "msg-breaker-notfound-bug",
            "msg-dup-append-bug",
        ] {
            let sc = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(
                sc.contains("pass"),
                "{model} should pass thread-only:\n{sc}"
            );
            assert!(
                sc.contains("(exhaustive)"),
                "{model} thread-only pass must be exhaustive to prove the miss:\n{sc}"
            );
            assert!(
                sc.contains("message-only mutant"),
                "{model} report lacks the msg-only annotation:\n{sc}"
            );
            assert_caught_and_replayable_msg(model);
        }
    }

    /// The correct-protocol message models hold on every schedule with
    /// fates enumerated: quorum writes stay self-healing under any
    /// single message fault, the breaker recovers through its half-open
    /// probe, and duplicate delivery is idempotent.
    #[test]
    fn modelcheck_msg_models_pass_exhaustively_with_fates_enumerated() {
        for model in [
            "msg-quorum-ack-loss",
            "msg-breaker-probe",
            "msg-dup-idempotence",
        ] {
            let out = run_line(&format!("modelcheck --model {model} --msg true")).unwrap();
            assert!(out.contains("pass"), "{model} --msg did not pass:\n{out}");
            assert!(
                out.contains("(exhaustive)"),
                "{model} --msg truncated:\n{out}"
            );
        }
    }

    /// The linearizability acceptance case: the three history mutants
    /// pass *exhaustively* under plain exploration (their corruption is
    /// invisible to state assertions — only the caller-visible order of
    /// invocations and responses is wrong, and every schedule was
    /// checked to prove it) and are caught under `--lincheck` with a
    /// minimal witness that verifies standalone and a trace that
    /// replays byte-identically.
    #[test]
    fn modelcheck_lincheck_mode_catches_what_state_asserts_provably_miss() {
        for model in [
            "lin-ack-before-log-bug",
            "lin-stale-read-bug",
            "lin-heal-restamp-bug",
        ] {
            let plain = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(
                plain.contains("pass"),
                "{model} should pass without --lincheck:\n{plain}"
            );
            assert!(
                plain.contains("(exhaustive)"),
                "{model} plain pass must be exhaustive to prove the miss:\n{plain}"
            );
            assert!(
                plain.contains("history mutant"),
                "{model} report lacks the history-mutant annotation:\n{plain}"
            );

            let out = run_line(&format!("modelcheck --model {model} --lincheck true")).unwrap();
            assert!(
                out.contains("caught"),
                "{model} --lincheck not caught:\n{out}"
            );
            assert!(
                out.contains("not linearizable"),
                "{model} counterexample is not a linearizability violation:\n{out}"
            );

            // The witness is self-contained evidence: `ech lincheck
            // --witness` re-checks minimality, canonical form, and
            // non-linearizability without re-running the schedule.
            let witness = out
                .lines()
                .find_map(|l| l.split("witness: ").nth(1))
                .expect("report carries an l1 witness");
            assert!(
                witness.starts_with(&format!("l1:{model}:")),
                "witness is not in the l1 schema: {witness}"
            );
            let verified = run_line(&format!("lincheck --witness {witness}")).unwrap();
            assert!(
                verified.contains("witness verified"),
                "{model} witness did not verify:\n{verified}"
            );

            // The trace replays the violation byte-identically, twice.
            // Replay needs `--lincheck true`: the trace pins the
            // schedule, the flag re-arms the history check on it.
            let trace_line = out
                .lines()
                .find(|l| l.trim_start().starts_with("trace: "))
                .expect("report carries a trace");
            let trace = trace_line.trim_start().trim_start_matches("trace: ");
            let replay_cmd = format!("modelcheck --replay {trace} --lincheck true");
            let first = run_line(&replay_cmd).unwrap();
            let second = run_line(&replay_cmd).unwrap();
            assert!(
                first.contains("violation reproduced"),
                "{model} replay lost the violation:\n{first}"
            );
            assert!(
                first.contains("not linearizable"),
                "{model} replay reproduced a different failure:\n{first}"
            );
            assert_eq!(first, second, "{model} replay is not deterministic");

            // Without the flag the same schedule is silent — the
            // violation lives in the history, not the state.
            let unarmed = run_line(&format!("modelcheck --replay {trace}")).unwrap();
            assert!(
                unarmed.contains("no violation"),
                "{model} replay without --lincheck should be silent:\n{unarmed}"
            );
        }
    }

    /// Histories recorded from the correct-protocol models are
    /// linearizable on every schedule: `--lincheck` adds the check
    /// without flipping a single verdict. (CI sweeps all models; this
    /// spot-checks one model per API family to keep the test fast.)
    #[test]
    fn modelcheck_lincheck_passes_on_correct_models() {
        for (model, extra) in [
            ("publish-vs-read", ""),
            ("quorum-write-faults", ""),
            ("reintegrate-vs-resize", ""),
            ("msg-dup-idempotence", " --msg true"),
        ] {
            let out = run_line(&format!(
                "modelcheck --model {model}{extra} --lincheck true"
            ))
            .unwrap();
            assert!(
                out.contains("pass"),
                "{model} --lincheck did not pass:\n{out}"
            );
            assert!(
                out.contains("(exhaustive)"),
                "{model} --lincheck truncated:\n{out}"
            );
            assert!(
                out.contains("histories lincheck-verified"),
                "{model} report does not state histories were checked:\n{out}"
            );
        }
    }

    /// `--models` selects by wildcard, errors when nothing matches, and
    /// refuses to combine with `--model`.
    #[test]
    fn modelcheck_models_glob_selects_and_rejects() {
        let out = run_line("modelcheck --models lin-*-bug --lincheck true").unwrap();
        for model in [
            "lin-ack-before-log-bug",
            "lin-stale-read-bug",
            "lin-heal-restamp-bug",
        ] {
            assert!(out.contains(model), "glob missed {model}:\n{out}");
        }
        assert!(
            !out.contains("publish-vs-read"),
            "glob over-matched:\n{out}"
        );

        let err = run_line("modelcheck --models zzz-*").unwrap_err();
        assert!(
            err.0.contains("matches no model"),
            "empty glob match does not explain itself: {}",
            err.0
        );
        let err = run_line("modelcheck --model cache-counters --models cache-*").unwrap_err();
        assert!(
            err.0.contains("--model") && err.0.contains("--models"),
            "flag conflict does not name both flags: {}",
            err.0
        );
    }

    /// `--stats-json` writes a machine-readable sidecar (one row per
    /// model with its D9 pair and verdict) without changing a byte of
    /// the text report.
    #[test]
    fn modelcheck_stats_json_sidecar_leaves_text_unchanged() {
        let path = std::env::temp_dir().join(format!("ech-stats-{}.json", std::process::id()));
        let path_s = path.to_str().expect("temp path is utf-8");
        let plain = run_line("modelcheck --model cache-counters").unwrap();
        let with = run_line(&format!(
            "modelcheck --model cache-counters --stats-json {path_s}"
        ))
        .unwrap();
        assert_eq!(plain, with, "--stats-json changed the text report");
        let json = std::fs::read_to_string(&path).expect("sidecar written");
        std::fs::remove_file(&path).ok();
        assert!(
            json.contains("\"model\": \"cache-counters\""),
            "sidecar lacks the model row:\n{json}"
        );
        assert!(
            json.contains("\"verdict\": \"pass\""),
            "sidecar lacks the verdict:\n{json}"
        );
        assert!(
            json.contains("\"pair\": \"weak-view-publish-relaxed\""),
            "sidecar lacks the D9 pair:\n{json}"
        );
        #[derive(serde::Deserialize)]
        struct Sidecar {
            mode: Mode,
            models: Vec<Row>,
        }
        #[derive(serde::Deserialize)]
        struct Mode {
            lincheck: bool,
        }
        #[derive(serde::Deserialize)]
        struct Row {
            model: String,
        }
        let parsed: Sidecar = serde_json::from_str(&json).expect("sidecar is well-formed JSON");
        assert!(!parsed.mode.lincheck);
        assert_eq!(parsed.models.len(), 1);
        assert_eq!(parsed.models[0].model, "cache-counters");
    }

    /// The standalone history harness is a pure function of its seed:
    /// identical invocations render identical linearizable reports, and
    /// parameters reshape the scripted workload.
    #[test]
    fn lincheck_smoke_is_deterministic_and_linearizable() {
        let a = run_line("lincheck").unwrap();
        let b = run_line("lincheck").unwrap();
        assert_eq!(a, b, "lincheck smoke is not deterministic");
        assert!(a.contains("linearizable"), "smoke not linearizable:\n{a}");
        let wide = run_line("lincheck --seed 99 --ops 300 --keys 6").unwrap();
        assert!(wide.contains("6 keys"), "params ignored:\n{wide}");
        assert!(wide.contains("linearizable"), "not linearizable:\n{wide}");
        assert!(run_line("lincheck --ops 0").is_err());
        assert!(run_line("lincheck --keys 0").is_err());
    }

    /// Witness verification is a real gate: corrupted or padded
    /// witnesses are rejected with a reason, not waved through.
    #[test]
    fn lincheck_witness_rejects_corruption() {
        assert!(run_line("lincheck --witness not-a-witness").is_err());
        // A linearizable history is not a witness of anything.
        let err = run_line("lincheck --witness l1:demo:i0.p1=v0/r0.ok/i1.g1/r1.v0").unwrap_err();
        assert!(
            err.0.contains("witness rejected"),
            "linearizable 'witness' accepted: {}",
            err.0
        );
    }

    #[test]
    fn layout_prints_all_ranks() {
        let out = run_line("layout --servers 10 --base 1000").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 11); // header + 10 ranks
        assert!(lines[1].starts_with("1,primary,500,"));
        assert!(lines[10].starts_with("10,secondary,100,"));
    }

    #[test]
    fn layout_rejects_bad_shapes() {
        assert!(run_line("layout --servers 0").is_err());
        assert!(run_line("layout --servers 10 --primaries 11").is_err());
        assert!(run_line("layout --servers 10 --base 5").is_err());
    }

    #[test]
    fn place_outputs_r_rows_with_one_primary() {
        let out = run_line("place --servers 10 --oid 10010 --replicas 2").unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let primaries = lines[1..].iter().filter(|l| l.ends_with("primary")).count();
        assert_eq!(primaries, 1);
    }

    #[test]
    fn place_respects_active_prefix() {
        let out = run_line("place --servers 10 --oid 7 --active 4").unwrap();
        for line in out.lines().skip(1) {
            let server: usize = line.split(',').nth(2).unwrap().parse().unwrap();
            assert!(server <= 4, "placed on inactive server: {line}");
        }
        assert!(run_line("place --servers 10 --active 0").is_err());
    }

    #[test]
    fn place_original_strategy_works() {
        let out = run_line("place --strategy original --oid 5").unwrap();
        assert_eq!(out.lines().count(), 3);
        assert!(run_line("place --strategy bogus").is_err());
    }

    #[test]
    fn trace_emits_four_policies() {
        // Use the smaller CC-b? Both are fast in release; in debug the
        // CC-a run is ~1 s, acceptable for a test.
        let out = run_line("trace --name cc-a").unwrap();
        assert_eq!(out.lines().count(), 5);
        assert!(out.contains("Primary+selective"));
        assert!(run_line("trace --name bogus").is_err());
    }

    #[test]
    fn three_phase_csv_has_expected_columns() {
        let out = run_line("three-phase --mode no-resizing --valley 30").unwrap();
        let header = out.lines().next().unwrap();
        assert_eq!(header, "time_s,throughput_mbps,active,powered,phase");
        assert!(out
            .lines()
            .last()
            .unwrap()
            .starts_with("# recovery_delay_s="));
        assert!(run_line("three-phase --valley 0").is_err());
        assert!(run_line("three-phase --mode warp").is_err());
    }

    #[test]
    fn resize_agility_csv() {
        let out = run_line("resize-agility --mode selective --objects 500").unwrap();
        assert!(out.starts_with("time_s,ideal,actual"));
        assert!(out.contains("# mean_gap="));
    }

    #[test]
    fn latency_outputs_percentiles() {
        let out = run_line("latency --migration none").unwrap();
        assert!(out.starts_with("metric,milliseconds"));
        assert_eq!(out.lines().count(), 7);
        assert!(run_line("latency --migration warp").is_err());
        assert!(run_line("latency --rate 0").is_err());
    }

    #[test]
    fn trace_knows_the_whole_family() {
        // Parsing-level check: unknown names rejected, known ones parse
        // (cc-d is the cheapest full run).
        assert!(run_line("trace --name cc-f").is_err());
        let out = run_line("trace --name cc-d").unwrap();
        assert_eq!(out.lines().count(), 5);
    }

    #[test]
    fn chaos_survival_report() {
        let out = run_line("chaos --objects 40 --seed 7 --error-rate 0.06").unwrap();
        assert!(out.starts_with("metric,value"));
        for metric in [
            "writes_attempted,40",
            "crashes_injected,2",
            "under_replicated,0",
            "dirty_entries,0",
        ] {
            assert!(out.contains(metric), "report missing `{metric}`:\n{out}");
        }
        assert!(out.contains("# verdict=SURVIVED"), "report:\n{out}");
        // Same seed, same drill, byte-identical report.
        assert_eq!(
            out,
            run_line("chaos --objects 40 --seed 7 --error-rate 0.06").unwrap()
        );
    }

    /// The message fault plane composes with the disk-fault drill: the
    /// partition and link faults must actually fire, the drill must
    /// still converge with zero acked-write loss, and the seeded report
    /// must replay byte-identically. Without `--net` the report must not
    /// change shape (no message-plane rows).
    #[test]
    fn chaos_net_report_is_deterministic_and_survives() {
        let base = run_line("chaos --objects 40 --seed 7 --error-rate 0.06").unwrap();
        assert!(
            !base.contains("net_sends"),
            "message-plane rows leaked into the base report:\n{base}"
        );
        let out = run_line("chaos --objects 40 --seed 7 --error-rate 0.06 --net true").unwrap();
        for metric in [
            "writes_attempted,40",
            "under_replicated,0",
            "dirty_entries,0",
        ] {
            assert!(out.contains(metric), "report missing `{metric}`:\n{out}");
        }
        for row in ["net_sends", "net_partitioned_sends", "net_dropped"] {
            let v: u64 = out
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{row},")))
                .unwrap_or_else(|| panic!("report missing `{row}`:\n{out}"))
                .parse()
                .expect("numeric metric");
            assert!(v > 0, "`{row}` never fired:\n{out}");
        }
        assert!(out.contains("# verdict=SURVIVED"), "report:\n{out}");
        // Same seed, same drill, byte-identical report.
        assert_eq!(
            out,
            run_line("chaos --objects 40 --seed 7 --error-rate 0.06 --net true").unwrap()
        );
    }

    #[test]
    fn chaos_rejects_bad_shapes() {
        assert!(run_line("chaos --servers 1").is_err());
        assert!(run_line("chaos --replicas 0").is_err());
        assert!(run_line("chaos --servers 4 --replicas 5").is_err());
        assert!(run_line("chaos --error-rate 1.5").is_err());
        assert!(run_line("chaos --objects 0").is_err());
    }

    #[test]
    fn unknown_command_and_flags_error() {
        assert!(run_line("frobnicate").is_err());
        assert!(run_line("layout --bogus 3").is_err());
        assert!(run_line("place stray").is_err());
    }

    #[test]
    fn bench_rejects_bad_invocations() {
        assert!(run_line("bench warp").is_err());
        assert!(run_line("bench hotpath extra").is_err());
        assert!(run_line("bench --bogus 1").is_err());
        assert!(run_line("bench --tolerance 2").is_err());
        assert!(run_line("bench --check-against /no/such/file --smoke true").is_err());
    }
}
