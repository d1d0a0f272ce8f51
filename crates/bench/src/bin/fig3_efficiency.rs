//! Figure 3 — efficiency overview: response time of Pro(MC), Pro(MC) w/o
//! ext, Sampling(MC), and the materialized-BDD baseline on the five large
//! datasets for k ∈ {5, 10, 20} (s = 10 000, w = 10 000, averaged over
//! `--searches` random terminal draws).

use netrel_bdd::{FullBdd, FullBddConfig};
use netrel_bench::{fmt_secs, maybe_dump_json, parse_args, random_terminals, time};
use netrel_core::prelude::*;
use netrel_datasets::Dataset;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    k: usize,
    dataset: String,
    pro_mc_secs: f64,
    pro_noext_secs: f64,
    sampling_mc_secs: f64,
    bdd: String,
    speedup_vs_sampling: f64,
}

fn main() {
    let args = parse_args();
    let s = 10_000usize;
    // The paper's w = 10 000 was chosen for ~100k-edge graphs; keep the
    // width-to-graph ratio comparable on scaled-down stand-ins.
    let w = if args.full { 10_000 } else { 1_000 };
    println!(
        "Figure 3: efficiency (s = {s}, w = {w}, scale = {}, {} searches)\n",
        args.scale, args.searches
    );
    let mut rows = Vec::new();
    for k in [5usize, 10, 20] {
        println!("--- k = {k} ---");
        println!(
            "{:<8} {:>12} {:>16} {:>14} {:>10} {:>10}",
            "dataset", "Pro(MC)", "Pro(MC) w/o ext", "Sampling(MC)", "BDD", "speedup"
        );
        for ds in Dataset::LARGE {
            let g = ds.generate(args.scale, args.seed);
            let mut pro_t = 0.0;
            let mut noext_t = 0.0;
            let mut samp_t = 0.0;
            for search in 0..args.searches {
                let t = random_terminals(&g, k, args.seed ^ ((search as u64) << 8) ^ k as u64);
                let pro_cfg = ProConfig {
                    s2bdd: S2BddConfig {
                        samples: s,
                        max_width: w,
                        seed: args.seed,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let (_, dt) = time(|| pro_reliability(&g, &t, pro_cfg).unwrap());
                pro_t += dt;
                let noext_cfg = ProConfig {
                    s2bdd: pro_cfg.s2bdd,
                    preprocess: PreprocessConfig::disabled(),
                };
                let (_, dt) = time(|| pro_reliability(&g, &t, noext_cfg).unwrap());
                noext_t += dt;
                let (_, dt) = time(|| {
                    sample_reliability(
                        &g,
                        &t,
                        SamplingConfig {
                            samples: s,
                            seed: args.seed,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                });
                samp_t += dt;
            }
            let n = args.searches as f64;
            let (pro_t, noext_t, samp_t) = (pro_t / n, noext_t / n, samp_t / n);

            // BDD baseline: one attempt with a node cap standing in for the
            // paper's 256 GB exhaustion — it DNFs on every large dataset.
            let t = random_terminals(&g, k, args.seed);
            let (bdd_out, bdd_t) = time(|| {
                FullBdd::build(
                    &g,
                    &t,
                    FullBddConfig {
                        node_limit: 4_000_000,
                        ..Default::default()
                    },
                )
            });
            let bdd = match bdd_out {
                Ok(b) => fmt_secs(bdd_t) + &format!(" ({} nodes)", b.node_count),
                Err(_) => "DNF".to_string(),
            };

            println!(
                "{:<8} {:>12} {:>16} {:>14} {:>10} {:>9.1}x",
                ds.to_string(),
                fmt_secs(pro_t),
                fmt_secs(noext_t),
                fmt_secs(samp_t),
                bdd,
                samp_t / pro_t
            );
            rows.push(Row {
                k,
                dataset: ds.to_string(),
                pro_mc_secs: pro_t,
                pro_noext_secs: noext_t,
                sampling_mc_secs: samp_t,
                bdd,
                speedup_vs_sampling: samp_t / pro_t,
            });
        }
        println!();
    }
    println!(
        "Expected shape (paper): Pro(MC) fastest everywhere, largest wins on the\n\
         road networks (Tokyo/NYC), smallest on Hit-d; BDD always DNF."
    );
    maybe_dump_json(&args, &rows);
}
