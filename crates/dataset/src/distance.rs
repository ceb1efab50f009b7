//! Distance kernels: runtime-dispatched SIMD with deterministic
//! lane-ordered accumulation — **kernel contract v2**.
//!
//! The paper uses Euclidean distance throughout (`△(·,⋆)` in Eq. 1). We keep
//! the squared form available because every comparison-only consumer (nearest
//! neighbour search, radius checks) can avoid the `sqrt`. Contract v2 opens
//! two more metrics ([`Metric::Manhattan`], [`Metric::Cosine`]) and a blocked
//! many-to-many kernel ([`sq_dist_block`]) on top of the PR-3 one-to-many
//! layer.
//!
//! # Kernel tiers
//!
//! The per-pair kernel is the innermost loop of every neighbour backend,
//! GB-kNN prediction, and every sampler's NN scan, so it is implemented once
//! per tier and the fastest host-supported variant is selected **once** per
//! process via [`is_x86_feature_detected!`]:
//!
//! | tier               | selected when                                       |
//! |--------------------|-----------------------------------------------------|
//! | [`Kernel::Fma`]    | x86_64 with AVX2 + FMA (4 × f64 fused per vector op)|
//! | [`Kernel::Sse2`]   | x86_64 with FMA but not AVX2 (2 × 128-bit fused)    |
//! | [`Kernel::Scalar`] | any other host, or forced via `GB_SIMD=scalar`      |
//!
//! Set the `GB_SIMD` environment variable before the first distance call to
//! force a tier: `fma` (alias `avx2`), `sse2`, `scalar` (aliases `off`,
//! `0`), or `auto`/unset for detection. A *known but unsupported* tier degrades to the
//! best available one (results are unaffected — all tiers are bit-identical);
//! an **unknown value is an error** ([`validate_simd_env`] at CLI/server
//! startup, a panic from [`active_kernel`] as the backstop). CI runs the test
//! suite once per tier so no fallback can silently rot.
//!
//! # Determinism: a (width, contract-version)-keyed accumulation tree
//!
//! Floating-point addition is not associative, so a naive "sum in a
//! different order when vectorized" kernel would break the workspace's
//! cross-backend bit-identity property tests the moment two consumers mix
//! tiers (or two hosts detect different CPUs). Every vectorizable kernel
//! therefore commits to the **same** summation tree, versioned as
//! [`CONTRACT_VERSION`] = 2:
//!
//! 1. four strided lane accumulators updated with a **fused** step:
//!    `lane[j] = fma(d_i, d_i, lane[j])` for `i ≡ j (mod 4)` over the
//!    length-4-aligned prefix (the FMA tier holds them in one 256-bit
//!    register, SSE2 in two 128-bit registers, the scalar tier in a
//!    4-element array via [`f64::mul_add`] — the *arithmetic* is identical
//!    because IEEE-754 `fma` is correctly rounded everywhere);
//! 2. the `len % 4` tail elements fold into lanes `0..len % 4` in order,
//!    with the same fused step;
//! 3. final reduction `(lane0 + lane2) + (lane1 + lane3)`.
//!
//! This is the v1 tree with the `mul → add` pair fused: v2 re-keys the
//! bit-identity contract to (width, contract-version) and moves **all width
//! classes of every tier to the fused tree together** — the contract bump is
//! deliberate, and the CI perf gate is re-baselined against it. On x86_64
//! without hardware FMA every tier (including a forced `sse2`/`fma`)
//! resolves to the scalar `mul_add` tree, which libm evaluates with the same
//! correct rounding — slow, but still bit-identical.
//!
//! Rows narrower than [`LANE_WIDTH`] have no vector work at all, and there
//! the deciding cost is code shape, not arithmetic: measured on the RD-GBG
//! hot path at p = 2, anything heavier than a bare sequential loop in the
//! inline per-pair kernel (lane arrays, dispatch branches, even a
//! never-taken fallback call edge) costs 13–40%. The contract therefore
//! stays **keyed on row width**, and the sub-lane class keeps v1's exact
//! unfused sequential sum:
//!
//! * `p < LANE_WIDTH` — every path sums in **sequential order** (`acc += d²`,
//!   unfused): [`sq_euclidean`], [`sq_euclidean_dispatched`],
//!   [`sq_euclidean_one_to_many`], and [`sq_dist_block`] (all tiers) agree
//!   bit-for-bit;
//! * `p ≥ LANE_WIDTH` — every *hot scan* path uses the **fused lane tree**:
//!   [`sq_euclidean_dispatched`], [`sq_euclidean_one_to_many`],
//!   [`sq_dist_block`], and all explicit tiers agree bit-for-bit (the inline
//!   [`sq_euclidean`] stays sequential; scan code never mixes it into
//!   lane-tree comparisons at these widths).
//!
//! The blocked kernel is bit-identical to repeated one-to-many calls by
//! construction: each accumulator of the Q×R register tile executes exactly
//! the per-pair chunk sequence, so blocking changes instruction-level
//! parallelism and cache behaviour, never arithmetic.
//!
//! Distances are only ever *compared* at one fixed width, so each width
//! class being internally bit-identical is exactly what the cross-backend
//! property tests need — and `tests/kernel_parity.rs` drives the whole
//! contract through odd lengths, remainder tails, subnormals, and ±0.0.
//! [`sq_euclidean_naive`] names the sequential order explicitly for tests.
//!
//! # Metrics
//!
//! [`Metric`] threads through kernel dispatch, `NeighborIndex` builds, and
//! GB-kNN. Each metric defines a *kernel value* (what the hot loops compute
//! and compare) and a *rank value* (`Metric::rank_of`, the human-facing
//! distance):
//!
//! | metric                  | kernel value                  | rank value      |
//! |-------------------------|-------------------------------|-----------------|
//! | [`Metric::SqEuclidean`] | `Σ d²`                        | `sqrt` (L2)     |
//! | [`Metric::Manhattan`]   | `Σ abs(d)`                    | identity (L1)   |
//! | [`Metric::Cosine`]      | `Σ d²` on L2-normalized rows  | `sqrt` (chord)  |
//!
//! Manhattan reuses the same lane tree with `abs` in place of the fused
//! square (`abs`/`add` are exact-ordered, so all tiers are bit-identical by
//! the same argument). Cosine is implemented as squared Euclidean over
//! [`l2_normalize_rows`]-normalized data: the chord distance
//! `‖â − b̂‖ = sqrt(2 − 2cosθ)` is strictly monotone in cosine distance, so
//! neighbour rankings are exact and the triangle inequality holds for index
//! pruning. Zero rows normalize to themselves (deterministically).
//!
//! # Invariants (no silent truncation)
//!
//! The pairwise kernels debug-assert equal lengths (in release the shorter
//! slice wins, as before the SIMD work). The batched boundaries are where
//! mismatches are actually caught: [`sq_euclidean_one_to_many`] always
//! asserts `block.len() == query.len() * out.len()`, and [`sq_dist_block`]
//! asserts `p > 0`, both strides divisible by `p`, and
//! `out.len() == n_queries * n_rows` — ragged inputs panic instead of
//! silently truncating.

use std::sync::OnceLock;

/// f64 lanes per vector op (256-bit register width). Rows narrower than this
/// have no vector work at all — scan loops use it to pick the inline
/// per-pair kernel over a pointless batched call.
pub const LANE_WIDTH: usize = 4;

/// Version of the bit-identity contract implemented by this module. Bumped
/// when the accumulation tree changes (v1: unfused `mul → add`; v2: fused
/// `mul_add` on every tier, all width classes moved together). Surfaced in
/// `/healthz` and `gb_build_info` so operators can tell two builds will
/// produce bit-identical models before mixing them.
pub const CONTRACT_VERSION: u32 = 2;

/// A distance-kernel tier. See the module docs for the selection rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// AVX2 + FMA: 4 × f64 lanes fused in one 256-bit accumulator.
    /// `GB_SIMD=avx2`, the v1 name, selects it too.
    Fma,
    /// SSE2 + FMA: 2 × f64 lanes fused in each of two 128-bit accumulators.
    Sse2,
    /// Portable scalar tier: the same fused 4-lane tree via [`f64::mul_add`].
    Scalar,
}

impl Kernel {
    /// CLI/env spelling of the tier.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Fma => "fma",
            Kernel::Sse2 => "sse2",
            Kernel::Scalar => "scalar",
        }
    }

    /// Every tier runnable on this host, fastest first. Always ends with
    /// [`Kernel::Scalar`]. Under contract v2 the SIMD tiers require hardware
    /// FMA (the fused step is the contract); hosts without it run scalar.
    #[must_use]
    pub fn available() -> Vec<Kernel> {
        let mut tiers = Vec::with_capacity(3);
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("fma") {
                if is_x86_feature_detected!("avx2") {
                    tiers.push(Kernel::Fma);
                }
                tiers.push(Kernel::Sse2);
            }
        }
        tiers.push(Kernel::Scalar);
        tiers
    }

    /// The tier this request actually runs on this host: a known but
    /// unsupported tier degrades to the best available one (bit-identical,
    /// so results are unaffected — only speed).
    #[must_use]
    pub fn resolve(self) -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            let fma = is_x86_feature_detected!("fma");
            match self {
                Kernel::Fma if fma && is_x86_feature_detected!("avx2") => self,
                Kernel::Fma | Kernel::Sse2 if fma => Kernel::Sse2,
                _ => Kernel::Scalar,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        Kernel::Scalar
    }

    /// Detects the preferred tier for this host, honouring the `GB_SIMD`
    /// override. Does not cache; see [`active_kernel`] for the process-wide
    /// choice.
    ///
    /// # Panics
    /// On an unrecognized `GB_SIMD` value — call [`validate_simd_env`] at
    /// startup for a clean error instead.
    #[must_use]
    pub fn detect() -> Kernel {
        let raw = std::env::var("GB_SIMD").unwrap_or_default();
        match kernel_from_env(&raw) {
            Ok(Some(forced)) => forced.resolve(),
            Ok(None) => *Kernel::available().first().expect("non-empty tier list"),
            Err(msg) => panic!("{msg}"),
        }
    }
}

/// Parses a `GB_SIMD` value. `Ok(None)` means auto-detect (empty or
/// `auto`); a known tier name returns that tier (which [`Kernel::resolve`]
/// may still degrade); anything else is an error listing the valid values.
///
/// # Errors
/// Unknown tier names.
pub fn kernel_from_env(raw: &str) -> Result<Option<Kernel>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "auto" => Ok(None),
        "fma" | "avx2" => Ok(Some(Kernel::Fma)),
        "sse2" => Ok(Some(Kernel::Sse2)),
        "scalar" | "off" | "0" => Ok(Some(Kernel::Scalar)),
        other => Err(format!(
            "GB_SIMD={other:?} is not a recognized kernel tier; valid values: \
             fma (alias: avx2), sse2, scalar (aliases: off, 0), auto (or unset)"
        )),
    }
}

/// Startup validation of the `GB_SIMD` override: returns the tier that will
/// be active, or the same error [`Kernel::detect`] would panic with. CLIs
/// call this before any distance work so a typo'd override is a clean
/// startup error, not a silent scalar fallback (the pre-v2 behaviour) or a
/// mid-request panic.
///
/// # Errors
/// Unknown `GB_SIMD` values.
pub fn validate_simd_env() -> Result<Kernel, String> {
    let raw = std::env::var("GB_SIMD").unwrap_or_default();
    Ok(match kernel_from_env(&raw)? {
        Some(forced) => forced.resolve(),
        None => *Kernel::available().first().expect("non-empty tier list"),
    })
}

/// The kernel tier every dispatched entry point uses, selected once per
/// process (first call wins; `GB_SIMD` must be set before that).
#[must_use]
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(Kernel::detect)
}

/// Squared Euclidean distance between two equal-length vectors — the
/// sequential per-pair kernel, fully inline.
///
/// This is the *sub-lane* half of the workspace's determinism contract
/// (see the module docs): rows narrower than [`LANE_WIDTH`] are summed in
/// sequential order by every path, and this plain loop is that order. The
/// body is deliberately a bare zip loop — no dispatch branch, no call
/// edge, no panic path. Measured on the RD-GBG hot path at p = 2, every
/// "smarter" body (lane-array forms, slice-pattern ladders, an outlined
/// fallback call) cost 13–40%: the call edge alone steals registers from
/// the caller's loop even when never taken.
///
/// Hot per-pair call sites on rows ≥ [`LANE_WIDTH`] must use
/// [`sq_euclidean_dispatched`] (fused lane-tree arithmetic, SIMD when
/// available) so their bits match the batched scans; blocked scans use
/// [`sq_euclidean_one_to_many`] or [`sq_dist_block`].
///
/// # Panics
/// Debug-asserts equal lengths (documented invariant: callers in this
/// workspace always pass rows of a single dataset); in release the shorter
/// length wins, exactly like the pre-SIMD kernel. Batched callers get the
/// full stride check at the [`sq_euclidean_one_to_many`] boundary.
#[inline]
#[must_use]
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

/// Per-pair squared Euclidean via the process-wide [`active_kernel`] tier.
/// For per-pair call sites on rows ≥ [`LANE_WIDTH`] (vantage-point
/// distances, the sparse arms of the hybrid scans) where bits must match
/// the batched lane-tree kernels; sub-lane rows fall back to
/// [`sq_euclidean`]'s sequential order, completing the width-keyed
/// contract — for any row width, this function, [`sq_euclidean_one_to_many`]
/// and the scan paths built on them all agree bit-for-bit.
///
/// # Panics
/// Same contract as [`sq_euclidean`], except that a shorter `b` panics
/// (bounds check) instead of truncating when `a.len() >= LANE_WIDTH`.
#[must_use]
pub fn sq_euclidean_dispatched(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < LANE_WIDTH {
        debug_assert_eq!(a.len(), b.len());
        return sq_euclidean(a, b);
    }
    sq_euclidean_with(active_kernel(), a, b)
}

/// [`sq_euclidean`] via an explicit kernel tier (parity tests, benches).
///
/// # Panics
/// Same contract as [`sq_euclidean`].
#[inline]
#[must_use]
pub fn sq_euclidean_with(kernel: Kernel, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let b = &b[..a.len()];
    match kernel {
        // The feature re-check keeps this safe for arbitrary caller-chosen
        // tiers (not just detected ones); `is_x86_feature_detected!`
        // caches, and an unsupported request degrades down the (equally
        // bit-identical) tier chain, so results are unaffected.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + FMA verified on this host; slices are equal-length.
        Kernel::Fma if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => unsafe {
            x86::sq_euclidean_fma256(a, b)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: FMA verified (SSE2 is part of the x86_64 baseline).
        Kernel::Fma | Kernel::Sse2 if is_x86_feature_detected!("fma") => unsafe {
            x86::sq_euclidean_fma128(a, b)
        },
        _ => sq_euclidean_scalar(a, b),
    }
}

/// Distances from one query row to every row of a contiguous row-major
/// block, written into `out` (one `f64` per row). This is the batched form
/// the hot scans use: tier dispatch happens once per call and the block
/// streams linearly through cache. Results are bit-identical to
/// [`sq_euclidean_dispatched`] per row (sequential order below
/// [`LANE_WIDTH`], the fused lane tree at or above it).
///
/// # Panics
/// Always (release included) asserts the exact stride relation
/// `block.len() == query.len() * out.len()` — ragged inputs panic instead
/// of silently truncating.
#[inline]
pub fn sq_euclidean_one_to_many(query: &[f64], block: &[f64], out: &mut [f64]) {
    sq_euclidean_one_to_many_with(active_kernel(), query, block, out);
}

/// [`sq_euclidean_one_to_many`] via an explicit kernel tier.
///
/// # Panics
/// Same stride contract as [`sq_euclidean_one_to_many`].
pub fn sq_euclidean_one_to_many_with(
    kernel: Kernel,
    query: &[f64],
    block: &[f64],
    out: &mut [f64],
) {
    let p = query.len();
    assert_eq!(
        block.len(),
        p * out.len(),
        "row-major block must be exactly out.len() rows of query.len() features \
         (block {} vs {} rows x {} features)",
        block.len(),
        out.len(),
        p
    );
    if p == 0 {
        out.fill(0.0);
        return;
    }
    if p < LANE_WIDTH {
        // Sub-lane rows have no vector work for any tier; every tier uses
        // the sequential per-pair kernel so the sub-lane half of the
        // width-keyed contract holds for batched calls too.
        for (row, d) in block.chunks_exact(p).zip(out.iter_mut()) {
            *d = sq_euclidean(query, row);
        }
        return;
    }
    match kernel {
        // Feature re-check as in `sq_euclidean_with`: safe for arbitrary
        // caller-chosen tiers, degrading down the bit-identical chain.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + FMA verified on this host; the stride assertion
        // above guarantees in-bounds row slices.
        Kernel::Fma if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => unsafe {
            x86::one_to_many_fma256(query, block, out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: FMA verified (SSE2 is part of the x86_64 baseline).
        Kernel::Fma | Kernel::Sse2 if is_x86_feature_detected!("fma") => unsafe {
            x86::one_to_many_fma128(query, block, out)
        },
        _ => {
            for (row, d) in block.chunks_exact(p).zip(out.iter_mut()) {
                *d = sq_euclidean_scalar(query, row);
            }
        }
    }
}

/// Blocked many-to-many squared-Euclidean kernel: distances from `Q` query
/// rows to `R` block rows (both row-major, `p` features), written to `out`
/// in `out[q * R + r]` layout.
///
/// On the FMA tier this runs a 2-query × 4-row register tile — eight
/// independent fused accumulator chains that reuse every loaded row chunk
/// across both queries, which is where the ≥ 1.5× over repeated one-to-many
/// comes from (ILP + cache reuse; see `benches/kernels.rs`). Every
/// accumulator executes exactly the per-pair chunk sequence, so the result
/// is **bit-identical** to calling [`sq_euclidean_one_to_many`] per query
/// (property-tested). Other tiers decompose into repeated one-to-many calls
/// (identical bits, no tile win).
///
/// # Panics
/// Always asserts `p > 0`, `queries.len() % p == 0`,
/// `block.len() % p == 0`, and `out.len() == n_queries * n_rows`.
#[inline]
pub fn sq_dist_block(queries: &[f64], block: &[f64], p: usize, out: &mut [f64]) {
    sq_dist_block_with(active_kernel(), queries, block, p, out);
}

/// [`sq_dist_block`] via an explicit kernel tier.
///
/// # Panics
/// Same shape contract as [`sq_dist_block`].
pub fn sq_dist_block_with(
    kernel: Kernel,
    queries: &[f64],
    block: &[f64],
    p: usize,
    out: &mut [f64],
) {
    let (_nq, nr) = check_block_shape(queries, block, p, out);
    if out.is_empty() {
        // No queries or no rows: nothing to write (`chunks_exact_mut(0)`
        // would panic below).
        return;
    }
    if p < LANE_WIDTH {
        // Sub-lane contract: sequential per-pair order on every path.
        for (q, orow) in queries.chunks_exact(p).zip(out.chunks_exact_mut(nr)) {
            for (row, d) in block.chunks_exact(p).zip(orow.iter_mut()) {
                *d = sq_euclidean(q, row);
            }
        }
        return;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 + FMA verified on this host; shapes asserted by
        // `check_block_shape`.
        Kernel::Fma if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") => unsafe {
            x86::dist_block_fma256(queries, block, p, nr, out)
        },
        _ => {
            for (q, orow) in queries.chunks_exact(p).zip(out.chunks_exact_mut(nr)) {
                sq_euclidean_one_to_many_with(kernel, q, block, orow);
            }
        }
    }
}

/// Shared shape validation for the blocked kernels. Returns `(nq, nr)`.
fn check_block_shape(queries: &[f64], block: &[f64], p: usize, out: &mut [f64]) -> (usize, usize) {
    assert!(p > 0, "blocked kernel requires p > 0");
    assert_eq!(
        queries.len() % p,
        0,
        "queries must be row-major with {p} features (len {})",
        queries.len()
    );
    assert_eq!(
        block.len() % p,
        0,
        "block must be row-major with {p} features (len {})",
        block.len()
    );
    let nq = queries.len() / p;
    let nr = block.len() / p;
    assert_eq!(
        out.len(),
        nq * nr,
        "out must be {nq} queries x {nr} rows (got {})",
        out.len()
    );
    (nq, nr)
}

/// The scalar tier: portable, and **the** reference the SIMD tiers must
/// match bit-for-bit. Uses the fused 4-lane strided accumulation tree
/// described in the module docs — [`f64::mul_add`] is correctly rounded on
/// every host (hardware FMA where present, libm's soft-fma otherwise), so
/// this is bit-identical to the vector tiers everywhere.
///
/// The sub-lane hardcoded forms fold the zero lanes away, which is exact —
/// a squared difference is never `-0.0`, `fma(d, d, 0.0)` rounds exactly
/// like `d * d`, and `x + 0.0 == x` holds bitwise for everything else — so
/// they are bit-identical to the full tree and to the SIMD tiers
/// (property-tested). Mismatched lengths truncate to the shorter slice,
/// like the pre-SIMD kernel (equal lengths are the documented invariant).
#[inline]
#[must_use]
pub fn sq_euclidean_scalar(a: &[f64], b: &[f64]) -> f64 {
    // Lane tree with the zero lanes folded: (l0 + l2) + (l1 + l3).
    match (a, b) {
        ([], _) | (_, []) => return 0.0,
        ([a0], [b0, ..]) | ([a0, ..], [b0]) => {
            let d = a0 - b0;
            return d * d;
        }
        ([a0, a1], [b0, b1, ..]) | ([a0, a1, ..], [b0, b1]) => {
            let d0 = a0 - b0;
            let d1 = a1 - b1;
            return d0 * d0 + d1 * d1;
        }
        ([a0, a1, a2], [b0, b1, b2, ..]) | ([a0, a1, a2, ..], [b0, b1, b2]) => {
            let d0 = a0 - b0;
            let d1 = a1 - b1;
            let d2 = a2 - b2;
            return (d0 * d0 + d2 * d2) + d1 * d1;
        }
        _ => {}
    }
    let mut lanes = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (ka, kb) in (&mut ca).zip(&mut cb) {
        // One step per 256-bit vector op: four independent fused chains the
        // compiler keeps in registers even without SIMD.
        for (lane, (x, y)) in lanes.iter_mut().zip(ka.iter().zip(kb.iter())) {
            let d = x - y;
            *lane = d.mul_add(d, *lane);
        }
    }
    // `len % 4` tail elements fold into lanes 0..len % 4, in order.
    for (lane, (x, y)) in lanes
        .iter_mut()
        .zip(ca.remainder().iter().zip(cb.remainder().iter()))
    {
        let d = x - y;
        *lane = d.mul_add(d, *lane);
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// Sequential left-to-right reference kernel (the pre-SIMD implementation).
/// Kept as the test oracle: the lane-ordered kernels agree with it within a
/// scaled-ULP tolerance, never necessarily bit-for-bit.
#[must_use]
pub fn sq_euclidean_naive(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

// ---------------------------------------------------------------------------
// Manhattan (L1) kernels
// ---------------------------------------------------------------------------

/// Manhattan (L1) distance — the sequential per-pair kernel, fully inline.
/// The sub-lane half of the L1 contract (rows `< LANE_WIDTH` sum in this
/// order on every path) and the naive test oracle in one: `abs` and `add`
/// are exact-ordered ops, so the only freedom is summation order.
#[inline]
#[must_use]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += (x - y).abs();
    }
    acc
}

/// Per-pair Manhattan via the process-wide [`active_kernel`] tier,
/// width-keyed exactly like [`sq_euclidean_dispatched`].
#[must_use]
pub fn manhattan_dispatched(a: &[f64], b: &[f64]) -> f64 {
    if a.len() < LANE_WIDTH {
        debug_assert_eq!(a.len(), b.len());
        return manhattan(a, b);
    }
    manhattan_with(active_kernel(), a, b)
}

/// [`manhattan`] via an explicit kernel tier (the 4-lane tree; see module
/// docs). The L1 vector paths need no FMA — `Fma` keys on AVX2 alone.
///
/// # Panics
/// Same contract as [`sq_euclidean`].
#[inline]
#[must_use]
pub fn manhattan_with(kernel: Kernel, a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let b = &b[..a.len()];
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified on this host; slices are equal-length.
        Kernel::Fma if is_x86_feature_detected!("avx2") => unsafe { x86::manhattan_avx2(a, b) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Kernel::Fma | Kernel::Sse2 => unsafe { x86::manhattan_sse2(a, b) },
        _ => manhattan_scalar(a, b),
    }
}

/// The scalar L1 tier: the same 4-lane strided tree with `abs` in place of
/// the fused square. Bit-identical to the vector tiers because every step
/// (`sub`, `abs`, `add`) is exactly rounded and the order is fixed.
#[inline]
#[must_use]
pub fn manhattan_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut lanes = [0.0f64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (ka, kb) in (&mut ca).zip(&mut cb) {
        for (lane, (x, y)) in lanes.iter_mut().zip(ka.iter().zip(kb.iter())) {
            *lane += (x - y).abs();
        }
    }
    for (lane, (x, y)) in lanes
        .iter_mut()
        .zip(ca.remainder().iter().zip(cb.remainder().iter()))
    {
        *lane += (x - y).abs();
    }
    (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
}

/// L1 one-to-many: [`sq_euclidean_one_to_many`]'s shape and width-keying
/// with Manhattan arithmetic.
///
/// # Panics
/// Same stride contract as [`sq_euclidean_one_to_many`].
#[inline]
pub fn manhattan_one_to_many(query: &[f64], block: &[f64], out: &mut [f64]) {
    manhattan_one_to_many_with(active_kernel(), query, block, out);
}

/// [`manhattan_one_to_many`] via an explicit kernel tier.
///
/// # Panics
/// Same stride contract as [`sq_euclidean_one_to_many`].
pub fn manhattan_one_to_many_with(kernel: Kernel, query: &[f64], block: &[f64], out: &mut [f64]) {
    let p = query.len();
    assert_eq!(
        block.len(),
        p * out.len(),
        "row-major block must be exactly out.len() rows of query.len() features \
         (block {} vs {} rows x {} features)",
        block.len(),
        out.len(),
        p
    );
    if p == 0 {
        out.fill(0.0);
        return;
    }
    if p < LANE_WIDTH {
        for (row, d) in block.chunks_exact(p).zip(out.iter_mut()) {
            *d = manhattan(query, row);
        }
        return;
    }
    match kernel {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified; the stride assertion guarantees in-bounds
        // row slices.
        Kernel::Fma if is_x86_feature_detected!("avx2") => unsafe {
            x86::manhattan_one_to_many_avx2(query, block, out)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: SSE2 is part of the x86_64 baseline.
        Kernel::Fma | Kernel::Sse2 => unsafe { x86::manhattan_one_to_many_sse2(query, block, out) },
        _ => {
            for (row, d) in block.chunks_exact(p).zip(out.iter_mut()) {
                *d = manhattan_scalar(query, row);
            }
        }
    }
}

/// Blocked many-to-many Manhattan kernel, [`sq_dist_block`]'s shape. L1 has
/// no register tile yet (the fused-multiply win does not exist for
/// `abs`/`add`, so blocking buys only cache reuse) — every tier decomposes
/// into repeated [`manhattan_one_to_many_with`] calls, which makes blocked
/// == repeated bit-identity hold by construction here too.
///
/// # Panics
/// Same shape contract as [`sq_dist_block`].
#[inline]
pub fn manhattan_dist_block(queries: &[f64], block: &[f64], p: usize, out: &mut [f64]) {
    manhattan_dist_block_with(active_kernel(), queries, block, p, out);
}

/// [`manhattan_dist_block`] via an explicit kernel tier.
///
/// # Panics
/// Same shape contract as [`sq_dist_block`].
pub fn manhattan_dist_block_with(
    kernel: Kernel,
    queries: &[f64],
    block: &[f64],
    p: usize,
    out: &mut [f64],
) {
    let (_nq, nr) = check_block_shape(queries, block, p, out);
    if out.is_empty() {
        // Same empty-shape guard as [`sq_dist_block_with`].
        return;
    }
    if p < LANE_WIDTH {
        for (q, orow) in queries.chunks_exact(p).zip(out.chunks_exact_mut(nr)) {
            for (row, d) in block.chunks_exact(p).zip(orow.iter_mut()) {
                *d = manhattan(q, row);
            }
        }
        return;
    }
    for (q, orow) in queries.chunks_exact(p).zip(out.chunks_exact_mut(nr)) {
        manhattan_one_to_many_with(kernel, q, block, orow);
    }
}

// ---------------------------------------------------------------------------
// Metric
// ---------------------------------------------------------------------------

/// The distance metric threaded through kernel dispatch, `NeighborIndex`
/// builds, and GB-kNN. See the module docs for the kernel-value / rank-value
/// split per metric. `Cosine` consumers must pass L2-normalized rows to the
/// kernel entry points ([`Metric::prepare_rows`] / [`Metric::prepare_query`]
/// do this); the index backends and GB-kNN handle it internally.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Metric {
    /// Squared Euclidean kernel values; rank = `sqrt` (the paper's metric).
    #[default]
    SqEuclidean,
    /// L1 kernel values; rank = identity.
    Manhattan,
    /// Squared chord on L2-normalized rows (monotone in cosine distance);
    /// rank = `sqrt`.
    Cosine,
}

impl Metric {
    /// Every supported metric (test matrices, CLI help).
    pub const ALL: [Metric; 3] = [Metric::SqEuclidean, Metric::Manhattan, Metric::Cosine];

    /// CLI/env/store spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Metric::SqEuclidean => "sqeuclidean",
            Metric::Manhattan => "manhattan",
            Metric::Cosine => "cosine",
        }
    }

    /// Parses a metric name. Accepts the canonical spellings plus common
    /// aliases (`l2`/`euclidean`, `l1`/`cityblock`).
    ///
    /// # Errors
    /// Unknown names, listing the valid spellings.
    pub fn parse(raw: &str) -> Result<Metric, String> {
        match raw.trim().to_ascii_lowercase().as_str() {
            "sqeuclidean" | "sq-euclidean" | "euclidean" | "l2" => Ok(Metric::SqEuclidean),
            "manhattan" | "l1" | "cityblock" => Ok(Metric::Manhattan),
            "cosine" => Ok(Metric::Cosine),
            other => Err(format!(
                "unknown metric {other:?}; valid values: sqeuclidean (aliases: euclidean, l2), \
                 manhattan (aliases: l1, cityblock), cosine"
            )),
        }
    }

    /// Whether kernel inputs must be L2-normalized first (cosine only).
    #[must_use]
    pub fn normalizes(self) -> bool {
        matches!(self, Metric::Cosine)
    }

    /// Kernel value → rank value (the monotone map hot loops defer).
    #[inline]
    #[must_use]
    pub fn rank_of(self, kernel_value: f64) -> f64 {
        match self {
            Metric::SqEuclidean | Metric::Cosine => kernel_value.sqrt(),
            Metric::Manhattan => kernel_value,
        }
    }

    /// Axis-gap lower bound in kernel space: for a point at coordinate
    /// difference `diff` along one dimension, every row on the far side is
    /// at kernel distance ≥ this (KD-tree pruning).
    #[inline]
    #[must_use]
    pub fn plane_gap(self, diff: f64) -> f64 {
        match self {
            Metric::SqEuclidean | Metric::Cosine => diff * diff,
            Metric::Manhattan => diff.abs(),
        }
    }

    /// Per-pair kernel value via the active tier, width-keyed. Cosine
    /// inputs must already be normalized.
    #[inline]
    #[must_use]
    pub fn pair(self, a: &[f64], b: &[f64]) -> f64 {
        match self {
            Metric::SqEuclidean | Metric::Cosine => sq_euclidean_dispatched(a, b),
            Metric::Manhattan => manhattan_dispatched(a, b),
        }
    }

    /// One-to-many kernel values via the active tier. Cosine inputs must
    /// already be normalized.
    ///
    /// # Panics
    /// Same stride contract as [`sq_euclidean_one_to_many`].
    #[inline]
    pub fn one_to_many(self, query: &[f64], block: &[f64], out: &mut [f64]) {
        match self {
            Metric::SqEuclidean | Metric::Cosine => sq_euclidean_one_to_many(query, block, out),
            Metric::Manhattan => manhattan_one_to_many(query, block, out),
        }
    }

    /// Blocked many-to-many kernel values via the active tier. Cosine
    /// inputs must already be normalized.
    ///
    /// # Panics
    /// Same shape contract as [`sq_dist_block`].
    #[inline]
    pub fn dist_block(self, queries: &[f64], block: &[f64], p: usize, out: &mut [f64]) {
        match self {
            Metric::SqEuclidean | Metric::Cosine => sq_dist_block(queries, block, p, out),
            Metric::Manhattan => manhattan_dist_block(queries, block, p, out),
        }
    }

    /// Prepares a row-major data matrix for this metric's kernels: L2
    /// normalization for cosine, identity otherwise.
    pub fn prepare_rows(self, data: &mut [f64], p: usize) {
        if self.normalizes() {
            l2_normalize_rows(data, p);
        }
    }

    /// Prepares one query row for this metric's kernels (cosine: returns a
    /// normalized copy; other metrics borrow the input unchanged).
    #[must_use]
    pub fn prepare_query<'q>(self, query: &'q [f64]) -> std::borrow::Cow<'q, [f64]> {
        if self.normalizes() {
            let mut q = query.to_vec();
            l2_normalize_row(&mut q);
            std::borrow::Cow::Owned(q)
        } else {
            std::borrow::Cow::Borrowed(query)
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Metric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Metric::parse(s)
    }
}

/// Sequential sum of squares of one row (the normalization norm). Plain
/// scalar on purpose: it runs once per row at build/query time, and having
/// exactly one implementation with no tier dispatch makes normalized
/// coordinates trivially bit-identical across tiers and hosts.
#[inline]
#[must_use]
pub fn sq_norm(row: &[f64]) -> f64 {
    let mut acc = 0.0;
    for x in row {
        acc += x * x;
    }
    acc
}

/// L2-normalizes one row in place. Zero rows (and rows whose norm is not
/// finite) are left unchanged — deterministic, and a zero query is then at
/// kernel distance `Σ b̂²  = 1` from every normalized row, which ranks all
/// rows equally instead of poisoning the scan with NaNs.
#[inline]
pub fn l2_normalize_row(row: &mut [f64]) {
    let norm = sq_norm(row).sqrt();
    if norm > 0.0 && norm.is_finite() {
        for x in row {
            *x /= norm;
        }
    }
}

/// L2-normalizes every row of a row-major matrix in place (cosine prep).
///
/// # Panics
/// Asserts `data.len()` is a multiple of `p` (for `p > 0`).
pub fn l2_normalize_rows(data: &mut [f64], p: usize) {
    if p == 0 {
        return;
    }
    assert_eq!(
        data.len() % p,
        0,
        "row-major matrix must be a multiple of {p} features (len {})",
        data.len()
    );
    for row in data.chunks_exact_mut(p) {
        l2_normalize_row(row);
    }
}

// ---------------------------------------------------------------------------
// Leaf sizing
// ---------------------------------------------------------------------------

/// KD/VP leaf size of rows narrower than [`LANE_WIDTH`] — the pre-v2
/// hardcoded bucket.
pub const DEFAULT_LEAF_SIZE: usize = 16;

/// KD/VP leaf size of rows of [`LANE_WIDTH`] features or more: the
/// fastest bucket of 8, 16, 32 and 64 for the KD-tree granulating the
/// clean S8 training set (12,250 × 16) on a 2-vCPU AVX2+FMA host
/// (BENCH_GRANULATION.json entry 7).
const WIDE_LEAF_SIZE: usize = 32;

/// KD/VP leaf size for rows of width `p`: a measured constant per width
/// class. Sub-lane rows run the inline per-pair kernel, so their leaves
/// stay at [`DEFAULT_LEAF_SIZE`]; wider rows scan each leaf through the
/// batched one-to-many kernel, whose per-call cost bigger leaves amortize
/// at the price of weaker pruning, and take 32 rows, the fastest leaf
/// measured on the S8 set. Leaf size changes traversal granularity only:
/// query results are exact and bit-identical at every leaf size.
#[must_use]
pub fn calibrated_leaf_size(p: usize) -> usize {
    if p < LANE_WIDTH {
        DEFAULT_LEAF_SIZE
    } else {
        WIDE_LEAF_SIZE
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! x86_64 tiers. Every function mirrors `sq_euclidean_scalar`'s fused
    //! accumulation tree (or `manhattan_scalar`'s abs tree) exactly — see
    //! the module docs for why.
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_andnot_pd, _mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm_add_pd, _mm_andnot_pd,
        _mm_fmadd_pd, _mm_loadu_pd, _mm_set1_pd, _mm_setzero_pd, _mm_storeu_pd, _mm_sub_pd,
    };

    /// Folds the `len % 4` tail into the lane array with the same fused
    /// step as the vector body, then applies the final reduction.
    /// `f64::mul_add` is correctly rounded, so this matches the scalar tier
    /// whether or not it compiles to a hardware `vfmadd`.
    #[inline(always)]
    fn finish_fused(mut lanes: [f64; 4], a: &[f64], b: &[f64], chunks: usize) -> f64 {
        let n = a.len();
        for (j, lane) in lanes.iter_mut().enumerate().take(n % 4) {
            let i = 4 * chunks + j;
            let d = a[i] - b[i];
            *lane = d.mul_add(d, *lane);
        }
        (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    }

    /// Tail fold + reduction for the L1 tree.
    #[inline(always)]
    fn finish_abs(mut lanes: [f64; 4], a: &[f64], b: &[f64], chunks: usize) -> f64 {
        let n = a.len();
        for (j, lane) in lanes.iter_mut().enumerate().take(n % 4) {
            let i = 4 * chunks + j;
            *lane += (a[i] - b[i]).abs();
        }
        (lanes[0] + lanes[2]) + (lanes[1] + lanes[3])
    }

    /// # Safety
    /// Caller guarantees AVX2 + FMA support and `b.len() >= a.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sq_euclidean_fma256(a: &[f64], b: &[f64]) -> f64 {
        let chunks = a.len() / 4;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut acc = _mm256_setzero_pd();
        for c in 0..chunks {
            let d = _mm256_sub_pd(
                _mm256_loadu_pd(ap.add(4 * c)),
                _mm256_loadu_pd(bp.add(4 * c)),
            );
            acc = _mm256_fmadd_pd(d, d, acc);
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        finish_fused(lanes, a, b, chunks)
    }

    /// # Safety
    /// Caller guarantees FMA support and `b.len() >= a.len()` (SSE2 is part
    /// of the x86_64 baseline).
    #[target_feature(enable = "sse2,fma")]
    pub(super) unsafe fn sq_euclidean_fma128(a: &[f64], b: &[f64]) -> f64 {
        let chunks = a.len() / 4;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        // Two 128-bit accumulators model the four lanes: acc01 = lanes
        // {0, 1}, acc23 = lanes {2, 3}.
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        for c in 0..chunks {
            let d0 = _mm_sub_pd(_mm_loadu_pd(ap.add(4 * c)), _mm_loadu_pd(bp.add(4 * c)));
            acc01 = _mm_fmadd_pd(d0, d0, acc01);
            let d1 = _mm_sub_pd(
                _mm_loadu_pd(ap.add(4 * c + 2)),
                _mm_loadu_pd(bp.add(4 * c + 2)),
            );
            acc23 = _mm_fmadd_pd(d1, d1, acc23);
        }
        let mut lanes = [0.0f64; 4];
        _mm_storeu_pd(lanes.as_mut_ptr(), acc01);
        _mm_storeu_pd(lanes.as_mut_ptr().add(2), acc23);
        finish_fused(lanes, a, b, chunks)
    }

    /// # Safety
    /// Caller guarantees `block.len() == query.len() * out.len()` and
    /// AVX2 + FMA support.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn one_to_many_fma256(query: &[f64], block: &[f64], out: &mut [f64]) {
        let p = query.len();
        for (r, d) in out.iter_mut().enumerate() {
            let row = &block[r * p..(r + 1) * p];
            *d = sq_euclidean_fma256(query, row);
        }
    }

    /// # Safety
    /// Caller guarantees `block.len() == query.len() * out.len()` and FMA
    /// support.
    #[target_feature(enable = "sse2,fma")]
    pub(super) unsafe fn one_to_many_fma128(query: &[f64], block: &[f64], out: &mut [f64]) {
        let p = query.len();
        for (r, d) in out.iter_mut().enumerate() {
            let row = &block[r * p..(r + 1) * p];
            *d = sq_euclidean_fma128(query, row);
        }
    }

    /// Stores one tile accumulator and finishes it exactly like the
    /// pairwise kernel for `(q, row)`.
    ///
    /// # Safety
    /// Caller guarantees AVX2 + FMA support and that `acc` holds the fused
    /// lane sums of the length-4-aligned prefix of `(q, row)`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tile_cell(acc: __m256d, q: &[f64], row: &[f64], chunks: usize) -> f64 {
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        finish_fused(lanes, q, row, chunks)
    }

    /// Blocked many-to-many kernel: 2-query × 4-row register tile, eight
    /// independent fused accumulator chains. Each chain executes exactly
    /// the per-pair chunk sequence (sub → fmadd in ascending chunk order),
    /// so every cell is bit-identical to `sq_euclidean_fma256(q, row)`; the
    /// speedup is ILP (eight chains hide the 4-cycle FMA latency) plus
    /// loading each row chunk once for both queries.
    ///
    /// # Safety
    /// Caller guarantees AVX2 + FMA support, `queries.len() % p == 0`,
    /// `block.len() == nr * p`, `out.len() == (queries.len() / p) * nr`,
    /// and `p >= 4`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dist_block_fma256(
        queries: &[f64],
        block: &[f64],
        p: usize,
        nr: usize,
        out: &mut [f64],
    ) {
        let nq = queries.len() / p;
        let chunks = p / 4;
        let qp = queries.as_ptr();
        let bp = block.as_ptr();
        let mut qi = 0;
        while qi + 2 <= nq {
            let q0 = &queries[qi * p..(qi + 1) * p];
            let q1 = &queries[(qi + 1) * p..(qi + 2) * p];
            let mut ri = 0;
            while ri + 4 <= nr {
                let mut a00 = _mm256_setzero_pd();
                let mut a01 = _mm256_setzero_pd();
                let mut a02 = _mm256_setzero_pd();
                let mut a03 = _mm256_setzero_pd();
                let mut a10 = _mm256_setzero_pd();
                let mut a11 = _mm256_setzero_pd();
                let mut a12 = _mm256_setzero_pd();
                let mut a13 = _mm256_setzero_pd();
                for c in 0..chunks {
                    let off = 4 * c;
                    let qa = _mm256_loadu_pd(qp.add(qi * p + off));
                    let qb = _mm256_loadu_pd(qp.add((qi + 1) * p + off));
                    let r0 = _mm256_loadu_pd(bp.add(ri * p + off));
                    let d = _mm256_sub_pd(qa, r0);
                    a00 = _mm256_fmadd_pd(d, d, a00);
                    let d = _mm256_sub_pd(qb, r0);
                    a10 = _mm256_fmadd_pd(d, d, a10);
                    let r1 = _mm256_loadu_pd(bp.add((ri + 1) * p + off));
                    let d = _mm256_sub_pd(qa, r1);
                    a01 = _mm256_fmadd_pd(d, d, a01);
                    let d = _mm256_sub_pd(qb, r1);
                    a11 = _mm256_fmadd_pd(d, d, a11);
                    let r2 = _mm256_loadu_pd(bp.add((ri + 2) * p + off));
                    let d = _mm256_sub_pd(qa, r2);
                    a02 = _mm256_fmadd_pd(d, d, a02);
                    let d = _mm256_sub_pd(qb, r2);
                    a12 = _mm256_fmadd_pd(d, d, a12);
                    let r3 = _mm256_loadu_pd(bp.add((ri + 3) * p + off));
                    let d = _mm256_sub_pd(qa, r3);
                    a03 = _mm256_fmadd_pd(d, d, a03);
                    let d = _mm256_sub_pd(qb, r3);
                    a13 = _mm256_fmadd_pd(d, d, a13);
                }
                let r0 = &block[ri * p..(ri + 1) * p];
                let r1 = &block[(ri + 1) * p..(ri + 2) * p];
                let r2 = &block[(ri + 2) * p..(ri + 3) * p];
                let r3 = &block[(ri + 3) * p..(ri + 4) * p];
                out[qi * nr + ri] = tile_cell(a00, q0, r0, chunks);
                out[qi * nr + ri + 1] = tile_cell(a01, q0, r1, chunks);
                out[qi * nr + ri + 2] = tile_cell(a02, q0, r2, chunks);
                out[qi * nr + ri + 3] = tile_cell(a03, q0, r3, chunks);
                out[(qi + 1) * nr + ri] = tile_cell(a10, q1, r0, chunks);
                out[(qi + 1) * nr + ri + 1] = tile_cell(a11, q1, r1, chunks);
                out[(qi + 1) * nr + ri + 2] = tile_cell(a12, q1, r2, chunks);
                out[(qi + 1) * nr + ri + 3] = tile_cell(a13, q1, r3, chunks);
                ri += 4;
            }
            while ri < nr {
                let row = &block[ri * p..(ri + 1) * p];
                out[qi * nr + ri] = sq_euclidean_fma256(q0, row);
                out[(qi + 1) * nr + ri] = sq_euclidean_fma256(q1, row);
                ri += 1;
            }
            qi += 2;
        }
        if qi < nq {
            let q = &queries[qi * p..(qi + 1) * p];
            one_to_many_fma256(q, block, &mut out[qi * nr..(qi + 1) * nr]);
        }
    }

    /// # Safety
    /// Caller guarantees AVX2 support and `b.len() >= a.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn manhattan_avx2(a: &[f64], b: &[f64]) -> f64 {
        let chunks = a.len() / 4;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let sign = _mm256_set1_pd(-0.0);
        let mut acc = _mm256_setzero_pd();
        for c in 0..chunks {
            let d = _mm256_sub_pd(
                _mm256_loadu_pd(ap.add(4 * c)),
                _mm256_loadu_pd(bp.add(4 * c)),
            );
            acc = _mm256_add_pd(acc, _mm256_andnot_pd(sign, d));
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        finish_abs(lanes, a, b, chunks)
    }

    /// # Safety
    /// `b.len() >= a.len()` (SSE2 is part of the x86_64 baseline).
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn manhattan_sse2(a: &[f64], b: &[f64]) -> f64 {
        let chunks = a.len() / 4;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let sign = _mm_set1_pd(-0.0);
        let mut acc01 = _mm_setzero_pd();
        let mut acc23 = _mm_setzero_pd();
        for c in 0..chunks {
            let d0 = _mm_sub_pd(_mm_loadu_pd(ap.add(4 * c)), _mm_loadu_pd(bp.add(4 * c)));
            acc01 = _mm_add_pd(acc01, _mm_andnot_pd(sign, d0));
            let d1 = _mm_sub_pd(
                _mm_loadu_pd(ap.add(4 * c + 2)),
                _mm_loadu_pd(bp.add(4 * c + 2)),
            );
            acc23 = _mm_add_pd(acc23, _mm_andnot_pd(sign, d1));
        }
        let mut lanes = [0.0f64; 4];
        _mm_storeu_pd(lanes.as_mut_ptr(), acc01);
        _mm_storeu_pd(lanes.as_mut_ptr().add(2), acc23);
        finish_abs(lanes, a, b, chunks)
    }

    /// # Safety
    /// Caller guarantees `block.len() == query.len() * out.len()` and AVX2
    /// support.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn manhattan_one_to_many_avx2(query: &[f64], block: &[f64], out: &mut [f64]) {
        let p = query.len();
        for (r, d) in out.iter_mut().enumerate() {
            let row = &block[r * p..(r + 1) * p];
            *d = manhattan_avx2(query, row);
        }
    }

    /// # Safety
    /// Caller guarantees `block.len() == query.len() * out.len()`.
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn manhattan_one_to_many_sse2(query: &[f64], block: &[f64], out: &mut [f64]) {
        let p = query.len();
        for (r, d) in out.iter_mut().enumerate() {
            let row = &block[r * p..(r + 1) * p];
            *d = manhattan_sse2(query, row);
        }
    }
}

/// Euclidean distance between two equal-length vectors.
#[inline]
#[must_use]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Heterogeneous value-difference used by SMOTENC-style samplers: Euclidean
/// over numeric columns plus a fixed `categorical_penalty` for every
/// categorical column whose codes differ. Not on the hot path — stays a
/// sequential scalar loop (its only consumers compare values produced by
/// this same function).
#[must_use]
pub fn mixed_distance(a: &[f64], b: &[f64], categorical: &[bool], categorical_penalty: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), categorical.len());
    let mut acc = 0.0;
    for ((x, y), &is_cat) in a.iter().zip(b.iter()).zip(categorical.iter()) {
        if is_cat {
            if (x - y).abs() > f64::EPSILON {
                acc += categorical_penalty * categorical_penalty;
            }
        } else {
            let d = x - y;
            acc += d * d;
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_hand_computation() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert!((euclidean(&a, &b) - 5.0).abs() < 1e-12);
        assert!((sq_euclidean(&a, &b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn zero_distance_to_self() {
        let a = [1.5, -2.0, 7.0];
        assert_eq!(euclidean(&a, &a), 0.0);
    }

    #[test]
    fn every_available_tier_matches_scalar_bits() {
        let a: Vec<f64> = (0..23).map(|i| (i as f64).sin() * 3.0).collect();
        let b: Vec<f64> = (0..23).map(|i| (i as f64).cos() * -2.0).collect();
        let want = sq_euclidean_scalar(&a, &b);
        let want_l1 = manhattan_scalar(&a, &b);
        for tier in Kernel::available() {
            assert_eq!(
                sq_euclidean_with(tier, &a, &b).to_bits(),
                want.to_bits(),
                "{} disagrees with scalar",
                tier.name()
            );
            assert_eq!(
                manhattan_with(tier, &a, &b).to_bits(),
                want_l1.to_bits(),
                "{} L1 disagrees with scalar",
                tier.name()
            );
        }
    }

    #[test]
    fn one_to_many_matches_per_pair_bits() {
        let p = 7;
        let query: Vec<f64> = (0..p).map(|i| i as f64 * 0.3 - 1.0).collect();
        let block: Vec<f64> = (0..5 * p).map(|i| (i as f64 * 0.71).fract()).collect();
        let mut out = vec![0.0; 5];
        for tier in Kernel::available() {
            sq_euclidean_one_to_many_with(tier, &query, &block, &mut out);
            for (r, &d) in out.iter().enumerate() {
                let want = sq_euclidean_with(tier, &query, &block[r * p..(r + 1) * p]);
                assert_eq!(d.to_bits(), want.to_bits(), "{} row {r}", tier.name());
            }
            manhattan_one_to_many_with(tier, &query, &block, &mut out);
            for (r, &d) in out.iter().enumerate() {
                let want = manhattan_with(tier, &query, &block[r * p..(r + 1) * p]);
                assert_eq!(d.to_bits(), want.to_bits(), "{} L1 row {r}", tier.name());
            }
        }
    }

    #[test]
    fn blocked_matches_repeated_one_to_many_bits() {
        for p in [2usize, 4, 7, 16, 33] {
            for (nq, nr) in [(1usize, 1usize), (2, 4), (3, 5), (5, 11), (8, 8)] {
                let queries: Vec<f64> = (0..nq * p).map(|i| (i as f64 * 0.37).sin()).collect();
                let block: Vec<f64> = (0..nr * p).map(|i| (i as f64 * 0.61).cos()).collect();
                let mut blocked = vec![0.0; nq * nr];
                let mut repeated = vec![0.0; nr];
                for tier in Kernel::available() {
                    sq_dist_block_with(tier, &queries, &block, p, &mut blocked);
                    for qi in 0..nq {
                        sq_euclidean_one_to_many_with(
                            tier,
                            &queries[qi * p..(qi + 1) * p],
                            &block,
                            &mut repeated,
                        );
                        for ri in 0..nr {
                            assert_eq!(
                                blocked[qi * nr + ri].to_bits(),
                                repeated[ri].to_bits(),
                                "{} p={p} q={qi} r={ri}",
                                tier.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "row-major block")]
    fn one_to_many_rejects_ragged_block() {
        let mut out = vec![0.0; 2];
        sq_euclidean_one_to_many(&[1.0, 2.0], &[0.0; 3], &mut out);
    }

    #[test]
    #[should_panic(expected = "queries must be row-major")]
    fn blocked_rejects_ragged_queries() {
        let mut out = vec![0.0; 2];
        sq_dist_block(&[0.0; 5], &[0.0; 4], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "out must be")]
    fn blocked_rejects_wrong_out_len() {
        let mut out = vec![0.0; 3];
        sq_dist_block(&[0.0; 4], &[0.0; 4], 2, &mut out);
    }

    #[test]
    fn one_to_many_zero_width_rows() {
        let mut out = vec![9.0; 4];
        sq_euclidean_one_to_many(&[], &[], &mut out);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    fn lane_tree_matches_naive_within_tolerance() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 15, 64, 257] {
            let a: Vec<f64> = (0..n)
                .map(|i| ((i * 37) % 19) as f64 * 0.37 - 3.0)
                .collect();
            let b: Vec<f64> = (0..n)
                .map(|i| ((i * 11) % 23) as f64 * -0.21 + 1.0)
                .collect();
            let lanes = sq_euclidean_scalar(&a, &b);
            let naive = sq_euclidean_naive(&a, &b);
            let tol = f64::EPSILON * naive * (n as f64 + 4.0) + f64::MIN_POSITIVE;
            assert!(
                (lanes - naive).abs() <= tol,
                "n={n}: lanes {lanes} vs naive {naive}"
            );
        }
    }

    #[test]
    fn detection_reports_a_host_tier() {
        let k = active_kernel();
        assert!(Kernel::available().contains(&k), "{k:?}");
        assert!(!k.name().is_empty());
    }

    #[test]
    fn env_parse_accepts_known_tiers_and_rejects_unknown() {
        assert_eq!(kernel_from_env(""), Ok(None));
        assert_eq!(kernel_from_env("auto"), Ok(None));
        assert_eq!(kernel_from_env("FMA"), Ok(Some(Kernel::Fma)));
        assert_eq!(kernel_from_env("avx2"), Ok(Some(Kernel::Fma)));
        assert_eq!(kernel_from_env("sse2"), Ok(Some(Kernel::Sse2)));
        for alias in ["scalar", "off", "0"] {
            assert_eq!(kernel_from_env(alias), Ok(Some(Kernel::Scalar)));
        }
        let err = kernel_from_env("avx512").unwrap_err();
        assert!(err.contains("fma"), "{err}");
        assert!(err.contains("avx512"), "{err}");
    }

    #[test]
    fn resolve_lands_on_an_available_tier() {
        for tier in [Kernel::Fma, Kernel::Sse2, Kernel::Scalar] {
            assert!(Kernel::available().contains(&tier.resolve()), "{tier:?}");
        }
    }

    #[test]
    fn metric_parse_round_trips_and_rejects_unknown() {
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.name()), Ok(m));
            assert_eq!(m.name().parse::<Metric>(), Ok(m));
        }
        assert_eq!(Metric::parse("l2"), Ok(Metric::SqEuclidean));
        assert_eq!(Metric::parse("L1"), Ok(Metric::Manhattan));
        assert!(Metric::parse("hamming").is_err());
    }

    #[test]
    fn manhattan_matches_hand_computation() {
        assert_eq!(manhattan(&[0.0, 3.0], &[4.0, 0.0]), 7.0);
        assert_eq!(Metric::Manhattan.rank_of(7.0), 7.0);
        assert_eq!(Metric::Manhattan.pair(&[0.0, 3.0], &[4.0, 0.0]), 7.0);
    }

    #[test]
    fn cosine_prepares_normalized_rows() {
        let mut rows = vec![3.0, 4.0, 0.0, 0.0, 0.0, 2.0];
        Metric::Cosine.prepare_rows(&mut rows, 2);
        assert_eq!(&rows[..2], &[0.6, 0.8]);
        // Zero rows normalize to themselves.
        assert_eq!(&rows[2..4], &[0.0, 0.0]);
        assert_eq!(&rows[4..6], &[0.0, 1.0]);
        // Identical directions are at distance 0; opposite at chord² = 4.
        let q = Metric::Cosine.prepare_query(&[6.0, 8.0]);
        assert_eq!(Metric::Cosine.pair(&q, &rows[..2]), 0.0);
        let opp = Metric::Cosine.prepare_query(&[-3.0, -4.0]);
        let d = Metric::Cosine.pair(&opp, &rows[..2]);
        assert!((d - 4.0).abs() < 1e-12, "{d}");
    }

    #[test]
    fn calibrated_leaf_size_is_fixed_per_width_class() {
        for p in 1..LANE_WIDTH {
            assert_eq!(calibrated_leaf_size(p), DEFAULT_LEAF_SIZE, "p = {p}");
        }
        for p in [LANE_WIDTH, 16, 85, 256] {
            assert_eq!(calibrated_leaf_size(p), WIDE_LEAF_SIZE, "p = {p}");
        }
    }

    #[test]
    fn mixed_distance_counts_category_mismatches() {
        let a = [1.0, 0.0, 2.0];
        let b = [1.0, 1.0, 3.0];
        let cat = [false, true, true];
        // numeric part identical; two categorical mismatches of penalty 1.
        let d = mixed_distance(&a, &b, &cat, 1.0);
        assert!((d - (2.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mixed_distance_equal_categories_costs_nothing() {
        let a = [1.0, 5.0];
        let b = [2.0, 5.0];
        let cat = [false, true];
        assert!((mixed_distance(&a, &b, &cat, 10.0) - 1.0).abs() < 1e-12);
    }
}
