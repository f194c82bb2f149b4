//! End-to-end guarantees of the sweep subsystem: a campaign's aggregated
//! output is byte-identical across worker-thread counts and across
//! kill-and-resume boundaries, and the smoke path (spec text → run →
//! aggregate) works in tier-1 time.

use std::path::PathBuf;

use fusion_runner::campaign::{aggregate_campaign, run_campaign, RunOptions};
use fusion_runner::spec::SweepSpec;
use fusion_runner::store::CampaignStore;
use fusion_runner::summary_json;
use proptest::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fusion-runner-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A 6-cell campaign that routes in well under a second per cell.
fn tiny_spec(campaign_seed: u64) -> SweepSpec {
    SweepSpec {
        name: "determinism".to_string(),
        campaign_seed,
        presets: vec!["quick".to_string()],
        seeds: 3,
        loads: vec![3],
        algorithms: vec!["ALG-N-FUSION".to_string(), "Q-CAST-N".to_string()],
        mc_rounds: Some(30),
        ..SweepSpec::default()
    }
}

/// Runs the campaign to completion with `threads` workers, optionally
/// interrupting it after `kill_after` cells first, and returns the bytes
/// of the aggregated summary.
fn summary_bytes(spec: &SweepSpec, tag: &str, threads: usize, kill_after: Option<usize>) -> String {
    let dir = tmp_dir(tag);
    if let Some(k) = kill_after {
        let partial = run_campaign(
            spec,
            &dir,
            &RunOptions {
                threads,
                max_cells: Some(k),
                progress: false,
            },
        )
        .unwrap();
        assert_eq!(partial.executed_cells, k.min(spec.cells().len()));
    }
    let out = run_campaign(
        spec,
        &dir,
        &RunOptions {
            threads,
            max_cells: None,
            progress: false,
        },
    )
    .unwrap();
    assert!(out.complete, "campaign must finish");
    let summaries = aggregate_campaign(&dir).unwrap();
    let text = std::fs::read_to_string(dir.join("summary.json")).unwrap();
    assert_eq!(text, summary_json(&summaries), "file matches return value");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

#[test]
fn two_seed_smoke_sweep_from_spec_text() {
    // The tier-1 smoke path: parse a TOML spec, run the campaign through
    // the scheduler + store, aggregate, and sanity-check the output.
    let spec = SweepSpec::parse(
        r#"
name = "smoke"
campaign_seed = 11
presets = ["quick"]
seeds = 2
loads = [3]
algorithms = ["ALG-N-FUSION"]
mc_rounds = 25
"#,
    )
    .unwrap();
    let dir = tmp_dir("smoke");
    let out = run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
    assert_eq!(out.total_cells, 2);
    assert!(out.complete);

    let store = CampaignStore::open(&dir).unwrap();
    let loaded = store.load_rows().unwrap();
    assert_eq!(loaded.rows.len(), 2);
    for row in &loaded.rows {
        assert!(row.str_field("cell").is_some());
        assert_eq!(row.str_field("preset"), Some("quick"));
        assert!(row.num_field("rate").is_some_and(|r| r >= 0.0));
        assert!(row.num_field("wall_ms").is_some());
        // Every cell runs under an enabled registry: its deterministic
        // counters land in the row as `m_<counter>` columns.
        assert!(
            row.int_field("m_mc.rounds").is_some_and(|r| r > 0),
            "cell row is missing telemetry columns"
        );
    }
    let manifest = store.load_manifest().unwrap().unwrap();
    assert!(manifest.done);
    assert_eq!(manifest.completed_cells, 2);

    let summaries = aggregate_campaign(&dir).unwrap();
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].seeds, 2);
    assert!(summaries[0].mean_rate > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_reuses_rows_instead_of_recomputing() {
    // Interrupt after one cell, then resume and check the first cell's
    // row bytes survived untouched (resume skips, never re-runs).
    let spec = tiny_spec(21);
    let dir = tmp_dir("reuse");
    run_campaign(
        &spec,
        &dir,
        &RunOptions {
            max_cells: Some(1),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let first_rows = std::fs::read_to_string(dir.join("rows.jsonl")).unwrap();
    run_campaign(&spec, &dir, &RunOptions::default()).unwrap();
    let all_rows = std::fs::read_to_string(dir.join("rows.jsonl")).unwrap();
    assert!(
        all_rows.starts_with(&first_rows),
        "resume must append, not rewrite"
    );
    assert_eq!(all_rows.lines().count(), spec.cells().len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn figures_scale_rows_aggregate_through_the_same_tooling() {
    // Satellite guarantee: `figures scale` emits rows the runner's
    // aggregator consumes directly.
    let mut config = fusion_sim::experiment::ExperimentConfig::quick();
    config.networks = 2;
    config.mc_rounds = 25;
    let rows = fusion_bench::figures::scale_rows(&config, "quick");
    let summaries = fusion_runner::aggregate_rows(&rows);
    assert_eq!(summaries.len(), 1);
    assert_eq!(summaries[0].preset, "quick");
    assert_eq!(summaries[0].seeds, 2);
    assert!(summaries[0].mean_rate > 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The headline determinism contract: for arbitrary campaign seeds
    /// and kill points, the aggregated summary's bytes are identical for
    /// 1 vs 4 worker threads and for uninterrupted vs killed-and-resumed
    /// campaigns.
    #[test]
    fn aggregated_output_is_byte_identical(
        campaign_seed in 0u64..1_000,
        kill_after in 1usize..5,
    ) {
        let spec = tiny_spec(campaign_seed);
        let serial = summary_bytes(&spec, "serial", 1, None);
        let threaded = summary_bytes(&spec, "threaded", 4, None);
        prop_assert_eq!(&serial, &threaded, "threads must not change results");
        let resumed = summary_bytes(&spec, "resumed", 4, Some(kill_after));
        prop_assert_eq!(&serial, &resumed, "kill+resume must not change results");
        // The byte-comparison above now includes the telemetry metric
        // columns; make sure they are actually there to be compared.
        prop_assert!(
            serial.contains("\"mean_m_mc.rounds\""),
            "summary is missing telemetry metric columns: {}",
            serial
        );
    }
}
