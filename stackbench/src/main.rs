//! Command line: `stackbench --workload NAME [--seed N] [--seconds S]
//! [--trace 0|1]`, or `stackbench --record [--seed N]`.

use std::process::ExitCode;

use stackbench::report::{json_line, table};
use stackbench::run::{run, Options};
use stackbench::world::{Workload, DEFAULT_SEED};

const USAGE: &str = "usage: stackbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       stackbench --record [--seed N]
workloads: serve_churn_1k serve_recurring_1k batch_paper";

struct Args {
    workload: Option<Workload>,
    options: Options,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        options: Options {
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
        },
        record: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            parsed.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                parsed.options.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?;
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value:?}"));
                }
                parsed.options.seconds = s;
            }
            "--trace" => {
                parsed.options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.record {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stackbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match stackbench::record::record(args.options.seed) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("stackbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse");
    let outcome = run(workload, &args.options);
    print!("{}", table(workload.name(), &outcome));
    match json_line(&outcome) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("stackbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
