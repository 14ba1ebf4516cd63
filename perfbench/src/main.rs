//! `scq-perfbench --workload <join-solve|range-query|cluster-mixed|all>
//!  --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints detail to standard error and, as the last line of standard
//! output, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--workload all` runs every workload both ways and
//! prints one table. Exits nonzero when any answer or check fails.

use std::process::ExitCode;

use scq_perfbench::gen::Workload;
use scq_perfbench::run::{run, Outcome, RunConfig};
use scq_perfbench::stats::result_json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--role") {
        let role = args.get(1).cloned().unwrap_or_default();
        return match scq_perfbench::deploy::run_role(&role, &args[2..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    match cli(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("scq-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn cli(args: &[String]) -> Result<bool, String> {
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {name} (usage: --workload <name|all> --seed <n> --seconds <s> --trace <0|1>)"))
    };
    let workload = flag("--workload")?;
    let seed: u64 = flag("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = flag("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match flag("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    // Logs and scratch WALs live in the working directory (the checkout).
    let scratch = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let config = |w, trace| RunConfig::new(w, seed, seconds, trace, scratch.clone(), exe.clone());
    let result = if workload == "all" {
        run_all(&config)
    } else {
        let w =
            Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let out = run(&config(w, trace))?;
        for l in &out.report {
            eprintln!("{l}");
        }
        println!(
            "{}",
            result_json(out.correct, out.attempted, out.failed, &out.metrics)
        );
        Ok(out.correct)
    };
    // Only removes the directory when nothing is left in it.
    let _ = std::fs::remove_dir(&scratch);
    result
}

/// Every workload, untraced then traced on the same seed, as one table.
fn run_all(config: &dyn Fn(Workload, bool) -> RunConfig) -> Result<bool, String> {
    let mut all_correct = true;
    let mut outcomes: Vec<(Workload, Outcome, Outcome)> = Vec::new();
    for w in Workload::ALL {
        let e2e = run(&config(w, false))?;
        let traced = run(&config(w, true))?;
        eprintln!("== {}", w.name());
        for l in e2e.report.iter().chain(&traced.report) {
            eprintln!("{l}");
        }
        all_correct &= e2e.correct && traced.correct;
        outcomes.push((w, e2e, traced));
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    println!("| metric | unit | {} |", names.join(" | "));
    println!("|---|---|{}", "---|".repeat(names.len()));
    // Rows in first-seen order, end-to-end before per-layer; a workload
    // without the metric shows "—".
    let mut rows: Vec<(String, &str)> = Vec::new();
    let e2e_rows = outcomes
        .iter()
        .flat_map(|(_, e, _)| e.metrics.iter().chain(&e.detail));
    let layer_rows = outcomes.iter().flat_map(|(_, _, t)| &t.metrics);
    for m in e2e_rows.chain(layer_rows) {
        if !rows.iter().any(|(n, _)| *n == m.name) {
            rows.push((m.name.clone(), m.unit));
        }
    }
    for (name, unit) in rows {
        let vals: Vec<String> = outcomes
            .iter()
            .map(|(_, e2e, traced)| {
                e2e.metrics
                    .iter()
                    .chain(&e2e.detail)
                    .chain(&traced.metrics)
                    .find(|m| m.name == name)
                    .map_or("—".into(), |m| format!("{:.3}", m.value))
            })
            .collect();
        println!("| {name} | {unit} | {} |", vals.join(" | "));
    }
    Ok(all_correct)
}
