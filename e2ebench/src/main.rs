//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, writes a result file (with
//! provenance) and, for a traced run, every span under `e2ebench/out/`,
//! and prints the result as one JSON object on the last line of standard
//! output. Exits 0 when every check passed, 1 when one failed, 2 on bad
//! arguments.

use cchunter_e2ebench::host::{self, HostReference};
use cchunter_e2ebench::report::{metric_problems, metrics_json, result_line, Metric};
use cchunter_e2ebench::sim::PAPER;
use cchunter_e2ebench::stats::median;
use cchunter_e2ebench::trace::Tracer;
use cchunter_e2ebench::{out_dir, run_workload, WORKLOADS};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("e2ebench: cannot create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(args.trace);
    let mut reference = HostReference::default();
    reference.sample();
    let mut outcome = run_workload(
        &args.workload,
        &PAPER,
        args.seed,
        args.seconds,
        &mut tracer,
        &mut reference,
    )
    .expect("workload names are validated by parse_args");
    reference.sample();

    match host::peak_rss_mb() {
        Some(mb) => outcome
            .end_to_end
            .push(Metric::new("peak_rss_mb", mb, "MB")),
        None => outcome
            .problems
            .push("peak RSS is unreadable (no /proc/self/status)".into()),
    }
    let attempted = outcome.attempted.max(1);
    let reference_ms = median(reference.samples()).expect("sampled at start and end");
    if args.trace {
        outcome.per_layer.push(Metric::new(
            "failed_ratio",
            outcome.failed as f64 / attempted as f64,
            "ratio",
        ));
        outcome
            .per_layer
            .push(Metric::new("host.ref_ms", reference_ms, "ms"));
    }
    let mut problems = outcome.problems.clone();
    problems.extend(metric_problems(&outcome.end_to_end));
    problems.extend(metric_problems(&outcome.per_layer));
    let correct = problems.is_empty() && outcome.failed == 0;
    let printed = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let mut provenance = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", format!("{:?}", args.seconds)),
        ("trace", args.trace.to_string()),
        ("git_rev", json_str(&host::git_rev(host::repo_root()))),
        ("build_profile", json_str(host::build_profile())),
        ("host_cores", host::host_cores().to_string()),
        ("pool_threads", host::pool_threads().to_string()),
        ("host_ref_ms_median", format!("{reference_ms:?}")),
        ("host_ref_ms_samples", format!("{:?}", reference.samples())),
    ];
    for (key, value) in &outcome.notes {
        provenance.push((key, json_str(value)));
    }
    let mut file = String::from("{\n");
    for (key, value) in &provenance {
        writeln!(file, "  {}: {value},", json_str(key)).expect("String write");
    }
    writeln!(file, "  \"correct\": {correct},").expect("String write");
    writeln!(file, "  \"attempted\": {attempted},").expect("String write");
    writeln!(file, "  \"failed\": {},", outcome.failed).expect("String write");
    let problem_list: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    writeln!(file, "  \"problems\": [{}],", problem_list.join(", ")).expect("String write");
    writeln!(
        file,
        "  \"end_to_end\": {},",
        metrics_json(&outcome.end_to_end)
    )
    .expect("String write");
    writeln!(
        file,
        "  \"per_layer\": {}",
        metrics_json(&outcome.per_layer)
    )
    .expect("String write");
    file.push_str("}\n");
    let result_path = out.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&result_path, file) {
        eprintln!("e2ebench: cannot write {}: {e}", result_path.display());
    }
    if args.trace {
        let spans_path = out.join(format!("{stem}-spans.tsv"));
        if let Err(e) = tracer.write_tsv(&spans_path) {
            eprintln!("e2ebench: cannot write {}: {e}", spans_path.display());
        }
    }

    for (key, value) in &provenance {
        eprintln!("e2ebench: {key} = {value}");
    }
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        eprintln!("e2ebench: {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &problems {
        eprintln!("e2ebench: CHECK FAILED: {p}");
    }
    println!(
        "{}",
        result_line(correct, attempted, outcome.failed, printed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
