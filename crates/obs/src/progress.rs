//! Build-side progress events emitted by RD-GBG / GBABS.
//!
//! The granulation core calls an optional `FnMut(&ProgressEvent)` sink
//! once per global iteration (and once after the borderline pass), so
//! `gbabs sample --progress` can stream progress to stderr and `/sample`
//! can record the trajectory in its response — without the core growing a
//! dependency on any I/O layer.

use crate::json::JsonObj;

/// Which phase of the GBABS pipeline an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressPhase {
    /// RD-GBG granulation iterations.
    Granulate,
    /// Borderline detection / sampling summary.
    Borderline,
}

impl ProgressPhase {
    /// Wire spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ProgressPhase::Granulate => "granulate",
            ProgressPhase::Borderline => "borderline",
        }
    }
}

/// One progress event from the granulation pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// End of one RD-GBG global iteration.
    Granulate {
        /// 1-based global iteration number.
        iteration: u32,
        /// Granular balls created so far.
        balls: usize,
        /// Balls whose radius was clamped by the conflict bound (Eq. 4)
        /// so far.
        conflicts: usize,
        /// Rows rejected as noise so far.
        noise: usize,
        /// Unassigned rows remaining across all class pools.
        remaining: usize,
        /// Density hoods (k-NN answers) fetched so far, batched or not:
        /// one per candidate step, plus, where a brute index fetches an
        /// iteration's hoods in one batched call, each fetched hood no
        /// step could use as it was (a row of it left `U` first, or its
        /// candidate left before its turn).
        knn_queries: usize,
        /// Nearest-heterogeneous index queries so far: the steps whose
        /// density hood could not prove the heterogeneous stop.
        het_queries: usize,
        /// Range index queries so far: the steps whose density hood could
        /// not prove the ball's members.
        range_queries: usize,
        /// Balls whose gap the conflict index evaluated so far, summed
        /// over every conflict-radius query (Eq. 4): the cost of the
        /// overlap restriction.
        conflict_visits: usize,
        /// Elapsed µs since granulation started.
        elapsed_us: u64,
    },
    /// Borderline pass finished (end of GBABS).
    Borderline {
        /// Total granular balls granulated.
        balls: usize,
        /// Balls flagged borderline.
        borderline: usize,
        /// Rows kept in the sampled dataset.
        sampled: usize,
        /// Elapsed µs for the whole GBABS run.
        elapsed_us: u64,
    },
}

impl ProgressEvent {
    /// The phase this event belongs to.
    #[must_use]
    pub fn phase(&self) -> ProgressPhase {
        match self {
            ProgressEvent::Granulate { .. } => ProgressPhase::Granulate,
            ProgressEvent::Borderline { .. } => ProgressPhase::Borderline,
        }
    }

    /// Renders the event as one JSON object (used in `/sample` responses
    /// and `--progress` machine output).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("phase", self.phase().as_str());
        match *self {
            ProgressEvent::Granulate {
                iteration,
                balls,
                conflicts,
                noise,
                remaining,
                knn_queries,
                het_queries,
                range_queries,
                conflict_visits,
                elapsed_us,
            } => {
                o.num_u64("iteration", u64::from(iteration))
                    .num_u64("balls", balls as u64)
                    .num_u64("conflicts", conflicts as u64)
                    .num_u64("noise", noise as u64)
                    .num_u64("remaining", remaining as u64)
                    .num_u64("knn_queries", knn_queries as u64)
                    .num_u64("het_queries", het_queries as u64)
                    .num_u64("range_queries", range_queries as u64)
                    .num_u64("conflict_visits", conflict_visits as u64)
                    .num_u64("elapsed_us", elapsed_us);
            }
            ProgressEvent::Borderline {
                balls,
                borderline,
                sampled,
                elapsed_us,
            } => {
                o.num_u64("balls", balls as u64)
                    .num_u64("borderline", borderline as u64)
                    .num_u64("sampled", sampled as u64)
                    .num_u64("elapsed_us", elapsed_us);
            }
        }
        o.finish()
    }
}

impl std::fmt::Display for ProgressEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ProgressEvent::Granulate {
                iteration,
                balls,
                conflicts,
                noise,
                remaining,
                knn_queries,
                het_queries,
                range_queries,
                conflict_visits,
                elapsed_us,
            } => write!(
                f,
                "[granulate] iter {iteration}: {balls} balls ({conflicts} conflict-bounded), \
                 {noise} noise, {remaining} rows remaining, queries {knn_queries} knn + \
                 {het_queries} het + {range_queries} range, {conflict_visits} conflict visits, \
                 {:.1} ms",
                elapsed_us as f64 / 1000.0
            ),
            ProgressEvent::Borderline {
                balls,
                borderline,
                sampled,
                elapsed_us,
            } => write!(
                f,
                "[borderline] {borderline}/{balls} balls borderline, {sampled} rows sampled, \
                 {:.1} ms total",
                elapsed_us as f64 / 1000.0
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_and_display_render() {
        let e = ProgressEvent::Granulate {
            iteration: 3,
            balls: 42,
            conflicts: 5,
            noise: 2,
            remaining: 100,
            knn_queries: 60,
            het_queries: 7,
            range_queries: 8,
            conflict_visits: 900,
            elapsed_us: 1500,
        };
        let j = e.to_json();
        for needle in [
            "\"phase\":\"granulate\"",
            "\"iteration\":3",
            "\"balls\":42",
            "\"conflicts\":5",
            "\"remaining\":100",
            "\"knn_queries\":60",
            "\"het_queries\":7",
            "\"range_queries\":8",
            "\"conflict_visits\":900",
        ] {
            assert!(j.contains(needle), "{needle} missing in {j}");
        }
        assert!(e.to_string().contains("iter 3"));
        assert!(e.to_string().contains("queries 60 knn + 7 het + 8 range"));
        assert!(e.to_string().contains("900 conflict visits"));

        let b = ProgressEvent::Borderline {
            balls: 42,
            borderline: 7,
            sampled: 350,
            elapsed_us: 9000,
        };
        assert!(b.to_json().contains("\"phase\":\"borderline\""));
        assert!(b.to_string().contains("7/42"));
        assert_eq!(b.phase(), ProgressPhase::Borderline);
    }
}
