//! The engine's observability bundle: handles pre-registered against a
//! [`cpdb_obs::Obs`] sink at attach time, so the hot query path records
//! latency and events without any name lookup — and pays one `Option`
//! branch per record when no sink is attached.

use crate::query::Query;
use cpdb_obs::{EventKind, Histogram, Obs, Span};

/// Histogram-name labels of [`crate::SetMetric`], [`crate::TopKMetric`] and
/// [`crate::Variant`], in declaration order (the enums' `as usize` index).
const SET_METRICS: [&str; 2] = ["sym_diff", "jaccard"];
const TOPK_METRICS: [&str; 4] = ["sym_diff", "intersection", "footrule", "kendall"];
const VARIANTS: [&str; 2] = ["mean", "median"];

/// Pre-registered engine metrics: one latency histogram per [`Query`] kind
/// — per (metric, variant) for set and Top-k queries, whose costs range
/// from a µs lookup to a whole-tree scan — plus one build-latency histogram
/// per shared artifact. Cloning shares the underlying handles, so a cloned
/// or delta-built engine keeps recording into the same sink.
#[derive(Debug, Clone, Default)]
pub(crate) struct EngineObs {
    obs: Obs,
    query_set: [[Histogram; 2]; 2],
    query_topk: [[Histogram; 2]; 4],
    query_aggregate: Histogram,
    query_clustering: Histogram,
    query_baseline: Histogram,
    artifact_rank_context: Histogram,
    artifact_prefs: Histogram,
    artifact_kendall_pool: Histogram,
    artifact_cocluster: Histogram,
    artifact_marginals: Histogram,
    artifact_key_index: Histogram,
}

impl EngineObs {
    pub(crate) fn new(obs: Obs) -> Self {
        EngineObs {
            query_set: per_variant(&obs, "set_consensus", SET_METRICS),
            query_topk: per_variant(&obs, "topk", TOPK_METRICS),
            query_aggregate: obs.histogram("engine.query.aggregate"),
            query_clustering: obs.histogram("engine.query.clustering"),
            query_baseline: obs.histogram("engine.query.baseline"),
            artifact_rank_context: obs.histogram("engine.artifact.rank_context"),
            artifact_prefs: obs.histogram("engine.artifact.preference_matrix"),
            artifact_kendall_pool: obs.histogram("engine.artifact.kendall_pool"),
            artifact_cocluster: obs.histogram("engine.artifact.coclustering"),
            artifact_marginals: obs.histogram("engine.artifact.marginals"),
            artifact_key_index: obs.histogram("engine.artifact.key_index"),
            obs,
        }
    }

    /// The underlying sink handle.
    pub(crate) fn sink(&self) -> &Obs {
        &self.obs
    }

    /// A span timing one query into its kind's histogram, leaving
    /// query-start/finish events in the flight recorder.
    pub(crate) fn query_span(&self, query: &Query) -> Span {
        let histogram = match query {
            Query::SetConsensus { metric, variant } => {
                &self.query_set[*metric as usize][*variant as usize]
            }
            Query::TopK {
                metric, variant, ..
            } => &self.query_topk[*metric as usize][*variant as usize],
            Query::Aggregate { .. } => &self.query_aggregate,
            Query::Clustering { .. } => &self.query_clustering,
            Query::Baseline { .. } => &self.query_baseline,
        };
        self.obs.span_with_events(
            histogram,
            EventKind::QueryStart,
            EventKind::QueryFinish,
            || format!("{query:?}"),
        )
    }

    /// A span timing one artifact build, leaving an artifact-build event
    /// carrying `label` and the build duration.
    pub(crate) fn artifact_span(&self, artifact: Artifact, label: impl FnOnce() -> String) -> Span {
        let histogram = match artifact {
            Artifact::RankContext => &self.artifact_rank_context,
            Artifact::PreferenceMatrix => &self.artifact_prefs,
            Artifact::KendallPool => &self.artifact_kendall_pool,
            Artifact::CoClustering => &self.artifact_cocluster,
            Artifact::Marginals => &self.artifact_marginals,
            Artifact::KeyIndex => &self.artifact_key_index,
        };
        self.obs
            .span_finishing(histogram, EventKind::ArtifactBuild, label)
    }
}

/// One `engine.query.<kind>.<metric>.<variant>` histogram per metric and
/// variant.
fn per_variant<const M: usize>(obs: &Obs, kind: &str, metrics: [&str; M]) -> [[Histogram; 2]; M] {
    metrics.map(|metric| {
        VARIANTS.map(|variant| obs.histogram(&format!("engine.query.{kind}.{metric}.{variant}")))
    })
}

/// Which shared artifact a build span times (maps to the per-artifact
/// latency histograms — the cache-amortised dominant cost of the paper's
/// consensus-query evaluation).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Artifact {
    RankContext,
    PreferenceMatrix,
    KendallPool,
    CoClustering,
    Marginals,
    KeyIndex,
}
