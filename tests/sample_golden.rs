//! Golden outputs of the whole `gbabs sample` path: FNV-1a/64 fingerprints
//! of the CSV text that `write_csv_str` renders for the GBABS sample of
//! `read_csv_str(text)`, pinned so that any change to the reader, the
//! granulation, the borderline walks or the writer that moves one byte of
//! the output fails here.
//!
//! Inputs:
//! - banana: the end-to-end benchmark's `offline-banana-2d` input 0 of
//!   run seed 1 (50,000 × 2, 10% class noise), rendered as that
//!   benchmark writes it;
//! - usps: its `offline-usps-256d` input 0 of run seed 1 (a stratified
//!   1,162-row sample of the S13 surrogate, p = 256, 10% class noise);
//! - mixed: a hand-built CSV with a categorical column, string labels,
//!   CRLF line ends and blank lines.
//!
//! Each is sampled as `gbabs sample IN -o OUT` samples it (GBABS, ρ = 5,
//! seed 42, `Auto` backend). The values were recorded once and are
//! compared verbatim; a mismatch prints the recomputed fingerprint. Record
//! new values only for a change that is *meant* to alter these outputs,
//! and say so where the change is described.

use gb_dataset::catalog::DatasetId;
use gb_dataset::io::{read_csv_str, write_csv_str, CsvOptions};
use gb_dataset::noise::inject_class_noise;
use gb_dataset::rng::derive_seed;
use gb_dataset::split::stratified_subsample;
use gb_dataset::synth::banana::BananaSpec;
use gbabs::{GbabsSampler, Sampler};
use std::fmt::Write as _;

/// FNV-1a, 64-bit, over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The seed of item `index` of `stream` of run seed `seed`, as the
/// end-to-end benchmark derives its input seeds.
fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    derive_seed(derive_seed(seed, stream), index)
}

const BANANA_STREAM: u64 = 1;
const USPS_STREAM: u64 = 2;
const NOISE_STREAM: u64 = 3;

fn banana_text() -> String {
    let s = mix(1, BANANA_STREAM, 0);
    let clean = BananaSpec {
        n_samples: 50_000,
        noise: 0.12,
        imbalance_ratio: 1.23,
        scatter: 0.05,
    }
    .generate(s);
    write_csv_str(&inject_class_noise(&clean, 0.10, mix(s, NOISE_STREAM, 0)).0)
}

fn usps_text() -> String {
    let population = DatasetId::S13.generate(1.0, 0x5EED_0813);
    let s = mix(1, USPS_STREAM, 0);
    let rows = stratified_subsample(&population, 1_162, s);
    let noisy = inject_class_noise(&population.select(&rows), 0.10, mix(s, NOISE_STREAM, 0)).0;
    write_csv_str(&noisy)
}

/// 900 rows of two numeric columns and a categorical colour around three
/// string-labelled blobs, with CRLF line ends, a blank line every 37 rows
/// and a whitespace-only one every 101.
fn mixed_text() -> String {
    let mut text = String::from("x,colour,y,species\r\n");
    for i in 0..900u32 {
        let label = ["heron", "egret", "ibis"][(i % 3) as usize];
        let centre = f64::from(i % 3) * 1.5;
        let x = centre + f64::from(i * 7919 % 1000) / 700.0;
        let y = -centre + f64::from(i * 104_729 % 1000) / 650.0;
        let colour = ["red", "teal", "ochre", "red"][(i * 13 % 4) as usize];
        write!(text, "{x},{colour},{y},{label}\r\n").expect("formatting into a String");
        if i % 37 == 5 {
            text.push_str("\r\n");
        }
        if i % 101 == 50 {
            text.push_str("  \t\r\n");
        }
    }
    text
}

/// The fingerprint of `gbabs sample`'s output text for input `text`.
fn sample_fingerprint(text: &str) -> u64 {
    let data = read_csv_str(text, &CsvOptions::default()).expect("a well-formed input");
    let out = GbabsSampler::default().sample(&data, 42);
    fnv1a(write_csv_str(&out.dataset).as_bytes())
}

fn check(name: &str, text: &str) {
    let actual = sample_fingerprint(text);
    let expected = GOLDEN.iter().find(|(k, _)| *k == name).map(|&(_, v)| v);
    assert!(
        expected == Some(actual),
        "gbabs sample output for {name} changed; recomputed fingerprint:\n    (\"{name}\", 0x{actual:016x}),\n"
    );
}

#[test]
fn banana_sample_matches_golden() {
    check("banana", &banana_text());
}

#[test]
fn usps_sample_matches_golden() {
    check("usps", &usps_text());
}

#[test]
fn mixed_csv_sample_matches_golden() {
    check("mixed", &mixed_text());
}

/// Fingerprints recorded with the serial reader, walks and writer.
const GOLDEN: &[(&str, u64)] = &[
    ("banana", 0x21521a4807b20c54),
    ("usps", 0x465598f8122bb809),
    ("mixed", 0x06e7b838528b2041),
];
