//! Step-output semantics: `Backend::step` **overwrites** the output
//! buffer (re-initializing it to the algebra's identity) — it never
//! accumulates into whatever the caller left there.
//!
//! The PageRank driver relies on this: `iterate` reuses one unzeroed
//! `sums` buffer across every iteration (`crates/core/src/pagerank.rs`),
//! which is only correct if every dataplane starts each round from the
//! identity. This suite poisons the buffer with garbage before each
//! step, for every `BackendKind` × bin format, the ablation variants,
//! the baseline runner engines and an integer algebra — turning the
//! driver's buffer reuse into an asserted contract instead of a silent
//! assumption.

use pcpm::core::algebra::{MinLabel, PlusF32};
use pcpm::core::engine::{GatherKind, ScatterKind};
use pcpm::prelude::*;

mod common;
use common::format_matrix;

fn int_x(n: u32) -> Vec<f32> {
    (0..n).map(|v| (v % 13) as f32).collect()
}

/// Steps `engine` twice — once into a clean buffer, once into a
/// poisoned one — and asserts bit-identical output.
fn assert_overwrites(name: &str, engine: &mut Engine<PlusF32>, x: &[f32], n: usize) {
    let mut clean = vec![0.0f32; n];
    engine.step(x, &mut clean).unwrap();
    // Garbage that would survive any "accumulate" bug: huge finite
    // values, negatives, and NaN (NaN + anything stays NaN, so even a
    // single read of the stale buffer would poison the output).
    for poison in [f32::MAX, -123.456, f32::NAN] {
        let mut y = vec![poison; n];
        engine.step(x, &mut y).unwrap();
        assert_eq!(
            clean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "{name}: step must overwrite a buffer poisoned with {poison}"
        );
    }
}

#[test]
fn every_backend_and_format_overwrites_the_output_buffer() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 13)).unwrap();
    let n = g.num_nodes() as usize;
    let x = int_x(g.num_nodes());
    for kind in BackendKind::ALL {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        assert_overwrites(kind.name(), &mut engine, &x, n);
    }
    for format in format_matrix() {
        let mut engine = Engine::<PlusF32>::builder(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .build()
            .unwrap();
        assert_overwrites(&format!("pcpm/{format}"), &mut engine, &x, n);
    }
    // Ablation variants route through different scatter/gather code.
    let mut csr = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .scatter(ScatterKind::CsrTraversal)
        .build()
        .unwrap();
    assert_overwrites("pcpm/csr-traversal", &mut csr, &x, n);
    let mut branchy = Engine::<PlusF32>::builder(&g)
        .partition_bytes(64 * 4)
        .gather(GatherKind::Branchy)
        .build()
        .unwrap();
    assert_overwrites("pcpm/branchy", &mut branchy, &x, n);
}

#[test]
fn baseline_runner_engines_overwrite_the_output_buffer() {
    let g = pcpm::graph::gen::rmat(&RmatConfig::graph500(9, 8, 35)).unwrap();
    let n = g.num_nodes() as usize;
    let x = int_x(g.num_nodes());
    let cfg = PcpmConfig::default().with_partition_bytes(64 * 4);
    let engines = [
        ("pdpr", pcpm::baselines::pdpr_engine(&g, &cfg).unwrap()),
        ("bvgas", pcpm::baselines::bvgas_engine(&g, &cfg).unwrap()),
    ];
    for (name, mut engine) in engines {
        assert_overwrites(name, &mut engine, &x, n);
    }
}

#[test]
fn integer_algebras_overwrite_with_their_own_identity() {
    // MinLabel's identity is u32::MAX, not 0 — a backend that zeroed
    // the buffer instead of writing the identity would corrupt the
    // min-reduction just as surely as one that accumulated.
    let g = pcpm::graph::gen::erdos_renyi(300, 2400, 9).unwrap();
    let n = g.num_nodes() as usize;
    let x: Vec<u32> = (0..g.num_nodes()).collect();
    for kind in BackendKind::ALL {
        let mut engine = Engine::<MinLabel>::builder(&g)
            .partition_bytes(64 * 4)
            .backend(kind)
            .build()
            .unwrap();
        let mut clean = vec![0u32; n];
        engine.step(&x, &mut clean).unwrap();
        for poison in [0u32, 7, u32::MAX - 1] {
            let mut y = vec![poison; n];
            engine.step(&x, &mut y).unwrap();
            assert_eq!(clean, y, "{}: poisoned with {poison}", kind.name());
        }
    }
}

#[test]
fn snapshot_loaded_engines_keep_the_overwrite_contract() {
    // The rehydrated dataplane allocates a fresh scratch update stream;
    // its first step must still overwrite like a cold-built engine's.
    let g = std::sync::Arc::new(pcpm::graph::gen::rmat(&RmatConfig::graph500(8, 8, 3)).unwrap());
    let n = g.num_nodes() as usize;
    let x = int_x(g.num_nodes());
    let dir = std::env::temp_dir().join("pcpm_step_contract");
    std::fs::create_dir_all(&dir).unwrap();
    for format in format_matrix() {
        let path = dir.join(format!("contract-{format}.pcpmc"));
        Engine::<PlusF32>::builder_shared(&g)
            .partition_bytes(64 * 4)
            .bin_format(format)
            .build()
            .unwrap()
            .save_snapshot(&path)
            .unwrap();
        let mut engine = Engine::<PlusF32>::from_snapshot(&path).unwrap();
        assert_overwrites(&format!("snapshot/{format}"), &mut engine, &x, n);
    }
}
