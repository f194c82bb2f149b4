//! Orchestrates multi-seed sweep campaigns over the routing pipeline.
//!
//! ```text
//! sweep run --spec FILE [--out DIR] [--threads N] [--max-cells N] [--fresh] [--quiet]
//!     Runs (or resumes) the campaign described by FILE (TOML or JSON; see
//!     `sweep example-spec`). Completed cells are skipped; an interrupted
//!     run resumes where it stopped. On completion the aggregated summary
//!     is written to <DIR>/summary.json and printed.
//!
//! sweep aggregate [--out DIR] [--rows FILE]
//!     Re-aggregates <DIR>/rows.jsonl into <DIR>/summary.json and prints
//!     the table; --rows FILE instead aggregates an arbitrary JSONL file
//!     in the shared schema (e.g. `figures scale`'s scale.jsonl) without
//!     writing anything.
//!
//! sweep list-presets
//!     Prints the canonical preset names sweep specs are authored against.
//!
//! sweep example-spec
//!     Prints a commented example TOML spec covering the whole schema.
//! ```
//!
//! Output layout of a campaign directory: `rows.jsonl` (one JSON row per
//! completed cell, append-only), `manifest.json` (campaign progress,
//! atomically replaced), `summary.json` (per-configuration mean ± 95% CI,
//! byte-deterministic).

use std::path::PathBuf;

use fusion_runner::campaign::{aggregate_campaign, run_campaign, RunOptions};
use fusion_runner::spec::SweepSpec;
use fusion_runner::store::CampaignStore;
use fusion_sim::experiment::{preset_names, resolve_preset};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("aggregate") => cmd_aggregate(&args[1..]),
        Some("list-presets") => cmd_list_presets(),
        Some("example-spec") => print!("{}", SweepSpec::example_toml()),
        Some("--help" | "-h" | "help") | None => usage(),
        Some(other) => die(&format!("unknown subcommand {other:?}; try `sweep --help`")),
    }
}

fn usage() {
    println!(
        "usage:\n  sweep run --spec FILE [--out DIR] [--threads N] [--max-cells N] [--fresh] [--quiet]\n  sweep aggregate [--out DIR] [--rows FILE]\n  sweep list-presets\n  sweep example-spec"
    );
}

fn cmd_run(args: &[String]) {
    let mut spec_path: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("results/sweep");
    let mut threads: Option<usize> = None;
    let mut max_cells: Option<usize> = None;
    let mut fresh = false;
    let mut quiet = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" => {
                spec_path = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--spec needs a file path")),
                );
            }
            "--out" => {
                out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a directory"));
            }
            "--threads" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
                if n == 0 {
                    // `figures` uses 0 for "all cores"; here omitting the
                    // flag already means that, so 0 is almost always a
                    // typo'd spec variable — reject it loudly.
                    die(
                        "--threads 0 is not a worker count; omit --threads to use all \
                         cores, or pass an explicit positive number",
                    );
                }
                threads = Some(n);
            }
            "--max-cells" => {
                max_cells = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| die("--max-cells needs a positive integer")),
                );
            }
            "--fresh" => fresh = true,
            "--quiet" => quiet = true,
            other => die(&format!("unknown flag {other:?} for `sweep run`")),
        }
    }

    let spec_path = spec_path.unwrap_or_else(|| die("`sweep run` needs --spec FILE"));
    let text = std::fs::read_to_string(&spec_path)
        .unwrap_or_else(|e| die(&format!("reading {}: {e}", spec_path.display())));
    let spec =
        SweepSpec::parse(&text).unwrap_or_else(|e| die(&format!("{}: {e}", spec_path.display())));

    if fresh {
        let mut store = CampaignStore::open(&out_dir)
            .unwrap_or_else(|e| die(&format!("opening {}: {e}", out_dir.display())));
        store
            .wipe()
            .unwrap_or_else(|e| die(&format!("wiping {}: {e}", out_dir.display())));
    }

    let opts = RunOptions {
        threads: threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from)),
        max_cells,
        progress: !quiet,
    };
    if !quiet {
        eprintln!(
            "campaign {:?}: {} cells, {} worker thread(s), dir {}",
            spec.name,
            spec.cells().len(),
            opts.threads,
            out_dir.display()
        );
    }
    let outcome = run_campaign(&spec, &out_dir, &opts).unwrap_or_else(|e| die(&e));
    if !quiet {
        eprintln!(
            "resumed {} cells, executed {}, {}/{} complete",
            outcome.resumed_cells,
            outcome.executed_cells,
            outcome.resumed_cells + outcome.executed_cells,
            outcome.total_cells
        );
        if outcome.dropped_rows > 0 {
            eprintln!(
                "warning: dropped {} corrupt line(s) from rows.jsonl",
                outcome.dropped_rows
            );
        }
    }
    if outcome.complete {
        let summaries = aggregate_campaign(&out_dir).unwrap_or_else(|e| die(&e));
        print!("{}", fusion_runner::render_table(&spec.name, &summaries));
    } else {
        eprintln!(
            "campaign incomplete ({} cells left); re-run the same command to resume",
            outcome.total_cells - outcome.resumed_cells - outcome.executed_cells
        );
        std::process::exit(3);
    }
}

fn cmd_aggregate(args: &[String]) {
    let mut out_dir = PathBuf::from("results/sweep");
    let mut rows_file: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out needs a directory"));
            }
            "--rows" => {
                rows_file = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--rows needs a JSONL file path")),
                );
            }
            other => die(&format!("unknown flag {other:?} for `sweep aggregate`")),
        }
    }
    // --rows aggregates an arbitrary JSONL file (e.g. the scale.jsonl the
    // `figures` binary writes) without touching a campaign directory.
    let (summaries, label) = match rows_file {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| die(&format!("reading {}: {e}", path.display())));
            let loaded = fusion_runner::store::parse_jsonl(&text);
            if loaded.dropped > 0 {
                eprintln!(
                    "warning: dropped {} unparseable line(s) from {}",
                    loaded.dropped,
                    path.display()
                );
            }
            (
                fusion_runner::aggregate_rows(&loaded.rows),
                path.display().to_string(),
            )
        }
        None => (
            aggregate_campaign(&out_dir).unwrap_or_else(|e| die(&e)),
            out_dir.display().to_string(),
        ),
    };
    if summaries.is_empty() {
        die(&format!("no result rows in {label}"));
    }
    print!("{}", fusion_runner::render_table(&label, &summaries));
}

fn cmd_list_presets() {
    println!("canonical presets (spec key `presets`):");
    for name in preset_names() {
        let c = resolve_preset(name).expect("listed presets resolve");
        println!(
            "  {name:<14} {:>6} switches  {:>3} states  kind={:<14} mc_rounds={}",
            c.topology.num_switches,
            c.topology.num_user_pairs,
            c.topology.kind.name(),
            c.mc_rounds,
        );
    }
    println!();
    println!("generators (spec keys `generator` + `switch_counts`):");
    for kind in fusion_topology::GeneratorKind::all_default() {
        println!("  {}", kind.name());
    }
    println!();
    println!("algorithms (spec key `algorithms`):");
    for algo in fusion_bench::workloads::Algorithm::ALL {
        println!("  {}", algo.name());
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
