//! **Ablation study** (beyond the paper) — quantifies the design choices
//! DESIGN.md calls out:
//!
//! 1. predecessor-list maintenance (the paper's MP) vs predecessor-free (MO)
//!    — the §3 "Memory optimisation" claim;
//! 2. paper codec (11 B/vertex) vs wide codec (20 B/vertex) on disk — the
//!    §5.1 storage trade-off;
//! 3. the `dd == 0` skip rate — how much work Proposition 3.1 saves.

use ebc_bench::{addition_updates, mean, removal_updates, time_once, update_times, Args, Variant};
use ebc_core::incremental::UpdateConfig;
use ebc_core::state::{BetweennessState, Update};
use ebc_gen::standins::{standin, StandinKind};
use ebc_store::{CodecKind, DiskBdStore};

fn main() {
    let args = Args::parse();
    let s = standin(StandinKind::Synthetic(1000), 1, args.seed);
    let adds = addition_updates(&s.graph, args.updates, args.seed);
    let rems = removal_updates(&s.graph, args.updates, args.seed + 1);
    println!(
        "Ablations on the 1k synthetic graph, {} updates per cell\n",
        args.updates
    );

    // 1. predecessor lists
    let t_mo = mean(
        &update_times(&s.graph, &adds, Variant::Mo)
            .iter()
            .map(|d| d.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let t_mp = mean(
        &update_times(&s.graph, &adds, Variant::Mp)
            .iter()
            .map(|d| d.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    println!("1. predecessor lists (additions):");
    println!("   MO (pred-free) mean {:.3} ms/update", t_mo * 1e3);
    println!(
        "   MP (maintained) mean {:.3} ms/update  ({:+.0}% vs MO)",
        t_mp * 1e3,
        100.0 * (t_mp - t_mo) / t_mo
    );

    // 2. codecs
    println!("\n2. on-disk codec (bootstrap + {} additions):", adds.len());
    for codec in [CodecKind::Paper, CodecKind::Wide] {
        let dir = std::env::temp_dir().join("ebc_ablation");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{codec:?}.bd"));
        let store = DiskBdStore::create(&path, s.graph.n(), codec).unwrap();
        let mut st =
            BetweennessState::new_into_store(s.graph.clone(), store, UpdateConfig::default())
                .unwrap();
        let (_, dt) = time_once(|| {
            for &(op, u, v) in &adds {
                st.apply(Update { op, u, v }).expect("valid");
            }
        });
        println!(
            "   {codec:?}: {:>5.2} s, {:.1} MiB on disk, {:.1} MiB read, {:.1} MiB written",
            dt.as_secs_f64(),
            st.store().data_bytes() as f64 / 1048576.0,
            st.store().bytes_read as f64 / 1048576.0,
            st.store().bytes_written as f64 / 1048576.0,
        );
    }

    // 3. skip rate
    let mut st = BetweennessState::new(&s.graph);
    for &(op, u, v) in adds.iter().chain(&rems) {
        st.apply(Update { op, u, v }).expect("valid");
    }
    let st_stats = st.stats();
    let total = st_stats.sources_processed + st_stats.sources_skipped;
    println!(
        "\n3. Proposition 3.1 skip rate: {}/{} sources ({:.1}%) skipped via dd == 0",
        st_stats.sources_skipped,
        total,
        100.0 * st_stats.sources_skipped as f64 / total as f64
    );
}
