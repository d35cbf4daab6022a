//! Rendering a [`Registry`] into the artifact [`Json`] type.
//!
//! Every campaign run embeds a `telemetry` section in its JSON artifact.
//! The rendering is **schema-stable**: keys come out in sorted order (the
//! registry's maps are sorted) and the standard schema is pre-registered,
//! so two runs of the same scenario always export the same key set.
//!
//! Wall-clock metrics (names containing [`cb_telemetry::WALL_MARKER`]) are
//! exported with their real, nondeterministic values; determinism checks
//! must compare `telemetry_json(&reg.masked())` instead, which blanks the
//! wall-clock payloads while keeping the keys.

use crate::json::{Json, Sink};
use cb_telemetry::{summary, Registry};

/// Emits a registry as a JSON object with stable (sorted) key order.
///
/// Layout:
///
/// ```text
/// {
///   "counters":   { "<name>": <u64>, ... },
///   "gauges":     { "<name>": <i64>, ... },
///   "histograms": { "<name>": {"count":n,"min":..,"max":..,"mean":..,"p50":..,"p90":..,"p99":..,
///                               "buckets":[[bucket,count],...]}, ... },
///   "summary":    { "decisions":.., "decision_p50_sim_us":.., "decision_p99_sim_us":..,
///                   "cache_hit_rate":..|null, "states_per_decision":..,
///                   "states_visited":.., "dedup_ratio":..|null }
/// }
/// ```
///
/// Counter/gauge values ride the f64-backed JSON number type; the standard
/// schema's values stay far below the 2^53 precision cliff.
pub fn emit_telemetry(reg: &Registry, sink: &mut dyn Sink) {
    sink.begin_obj();
    sink.key("counters");
    sink.begin_obj();
    for (k, v) in reg.counters() {
        sink.key(k);
        sink.num(v as f64);
    }
    sink.end_obj();
    sink.key("gauges");
    sink.begin_obj();
    for (k, v) in reg.gauges() {
        sink.key(k);
        sink.num(v as f64);
    }
    sink.end_obj();
    sink.key("histograms");
    sink.begin_obj();
    for (k, h) in reg.hists() {
        sink.key(k);
        sink.begin_obj();
        // An empty histogram has no min/max; export just the count so the
        // schema stays parseable without sentinel values.
        sink.key("count");
        sink.num(h.count() as f64);
        if !h.is_empty() {
            for (key, v) in [
                ("min", h.min() as f64),
                ("max", h.max() as f64),
                ("mean", h.mean()),
                ("p50", h.quantile(0.5) as f64),
                ("p90", h.quantile(0.9) as f64),
                ("p99", h.quantile(0.99) as f64),
            ] {
                sink.key(key);
                sink.num(v);
            }
            // Raw log-bucket distribution rides along as [bucket, count]
            // pairs so corpus ingestion can compare whole distributions,
            // not just the summary quantiles.
            sink.key("buckets");
            sink.begin_arr();
            for (b, c) in h.buckets() {
                sink.begin_arr();
                sink.num(b as f64);
                sink.num(c as f64);
                sink.end_arr();
            }
            sink.end_arr();
        }
        sink.end_obj();
    }
    sink.end_obj();
    let digest = summary::summarize(reg);
    sink.key("summary");
    sink.begin_obj();
    for (key, v) in [
        ("decisions", Some(digest.decisions as f64)),
        (
            "decision_p50_sim_us",
            Some(digest.decision_p50_sim_us as f64),
        ),
        (
            "decision_p99_sim_us",
            Some(digest.decision_p99_sim_us as f64),
        ),
        ("cache_hit_rate", digest.cache_hit_rate),
        ("states_per_decision", Some(digest.states_per_decision)),
        ("states_visited", Some(digest.states_visited as f64)),
        ("dedup_ratio", digest.dedup_ratio),
    ] {
        sink.key(key);
        match v {
            Some(n) => sink.num(n),
            None => sink.null(),
        }
    }
    sink.end_obj();
    sink.end_obj();
}

/// Renders a registry as a [`Json`] tree (see [`emit_telemetry`]).
pub fn telemetry_json(reg: &Registry) -> Json {
    Json::build(|sink| emit_telemetry(reg, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_telemetry::keys;

    fn sample() -> Registry {
        let mut reg = Registry::new();
        keys::preregister_standard(&mut reg);
        reg.add(keys::CORE_DECISIONS_TOTAL, 4);
        reg.add(keys::CORE_STATES_EXPLORED, 40);
        for v in [1u64, 2, 3, 100] {
            reg.record(keys::CORE_DECISION_LATENCY_SIM_US, v);
        }
        reg.record(keys::CORE_DECISION_LATENCY_WALL_NS, 123_456);
        reg
    }

    #[test]
    fn sections_and_summary_are_present() {
        let j = telemetry_json(&sample());
        let counters = j.get("counters").expect("counters");
        assert_eq!(
            counters
                .get(keys::CORE_DECISIONS_TOTAL)
                .and_then(Json::as_u64),
            Some(4)
        );
        let hist = j
            .get("histograms")
            .and_then(|h| h.get(keys::CORE_DECISION_LATENCY_SIM_US))
            .expect("latency hist");
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(4));
        assert!(hist.get("p99").and_then(Json::as_u64).unwrap() >= 3);
        let buckets = hist
            .get("buckets")
            .and_then(Json::as_array)
            .expect("raw buckets exported");
        let total: u64 = buckets
            .iter()
            .map(|pair| {
                pair.as_array()
                    .and_then(|p| p[1].as_u64())
                    .expect("[bucket, count] pair")
            })
            .sum();
        assert_eq!(total, 4);
        let s = j.get("summary").expect("summary");
        assert_eq!(s.get("decisions").and_then(Json::as_u64), Some(4));
        assert_eq!(
            s.get("states_per_decision").and_then(Json::as_f64),
            Some(10.0)
        );
        assert_eq!(s.get("cache_hit_rate"), Some(&Json::Null));
    }

    #[test]
    fn empty_histograms_export_a_bare_count() {
        let j = telemetry_json(&sample());
        // net.delivery_latency_us is pre-registered but never recorded.
        let h = j
            .get("histograms")
            .and_then(|h| h.get(keys::NET_DELIVERY_LATENCY_US))
            .expect("empty hist present (schema stability)");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(0));
        assert!(h.get("min").is_none());
    }

    #[test]
    fn masked_rendering_is_stable_across_wall_noise() {
        let a = sample();
        let mut b = sample();
        b.record(keys::CORE_DECISION_LATENCY_WALL_NS, 999);
        assert_ne!(
            telemetry_json(&a).to_string_compact(),
            telemetry_json(&b).to_string_compact()
        );
        assert_eq!(
            telemetry_json(&a.masked()).to_string_compact(),
            telemetry_json(&b.masked()).to_string_compact()
        );
        // Masking keeps the key set: the wall histogram is still exported.
        let masked = telemetry_json(&a.masked());
        let h = masked
            .get("histograms")
            .and_then(|h| h.get(keys::CORE_DECISION_LATENCY_WALL_NS))
            .expect("wall hist key survives masking");
        assert_eq!(h.get("count").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn round_trips_through_the_parser() {
        let j = telemetry_json(&sample());
        let text = j.to_string_pretty();
        let back = Json::parse(&text).expect("parse");
        assert_eq!(back, j);
    }
}
