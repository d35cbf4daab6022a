//! `triage-io`: what a developer holding red seeds waits for.
//!
//! One unit is the whole journey on kv with the planted unguarded-read bug
//! (most seeds fail `kv.linearizable` by design): sweep and shrink the
//! seeds, write one ~1 MB artifact per failure, read and replay each
//! artifact, ingest the artifact directory into a corpus, save it, load it
//! back, and ask the corpus a question against the baseline corpus that
//! set-up built from a stock kv sweep. The individually timed operation is
//! `read_artifact` + `replay_artifact`.

use crate::spans::{durations_of, Span};
use crate::stats::median;
use crate::sweep::{sweep, sweep_traced, Arm, Ctx, Timed, Unit};
use crate::workloads::{base_seed, sweep_metrics, Metrics, Scale, Workload, WORKERS};
use cb_corpus::{diff, select, top_blame, Corpus, DiffConfig, Predicate};
use cb_harness::campaign::{
    read_artifact, replay_artifact, run_campaign, CampaignConfig, CampaignOutcome,
};
use cb_kv::KvCampaign;
use std::path::{Path, PathBuf};

/// The journey, set up.
pub struct Triage {
    arms: Vec<Arm>,
    base_seed: u64,
    artifacts: PathBuf,
    corpus_dir: PathBuf,
    baseline: Corpus,
    /// Query rounds per unit.
    questions: u64,
    /// Outcome and artifact bytes of the last repetition.
    last: Vec<CampaignOutcome>,
    artifact_bytes: u64,
    index_bytes: u64,
}

impl Triage {
    /// Builds the baseline corpus from a stock kv sweep, saves it and loads
    /// it back.
    pub fn new(seed: u64, scale: Scale, scratch: &Path) -> Triage {
        let base_seed = base_seed(seed);
        let outcome = run_campaign(
            &KvCampaign::default(),
            &CampaignConfig {
                base_seed,
                seeds: scale.pick(256, 8),
                workers: WORKERS,
                check_determinism: false,
                shrink: false,
                artifact_dir: None,
                keep_reports: true,
                ..CampaignConfig::default()
            },
        );
        let mut corpus = Corpus::new();
        corpus.ingest_outcome(&outcome);
        let dir = scratch.join("baseline");
        corpus.save(&dir).expect("baseline corpus saves");
        let baseline = Corpus::load(&dir).expect("baseline corpus loads");
        assert_eq!(baseline.len(), corpus.len(), "baseline round-trips");
        Triage {
            arms: vec![Arm {
                name: "kv-unsafe",
                scenario: Box::new(KvCampaign {
                    unsafe_reads: true,
                    ..KvCampaign::default()
                }),
                seeds: scale.pick(8, 3),
                may_fail: &["kv.linearizable"],
                plan: None,
            }],
            base_seed,
            artifacts: scratch.join("artifacts"),
            corpus_dir: scratch.join("corpus"),
            baseline,
            questions: scale.pick(4, 1),
            last: Vec::new(),
            artifact_bytes: 0,
            index_bytes: 0,
        }
    }

    /// Everything after the sweep: replay, ingest, save, load, query.
    fn after_sweep(&mut self, outcome: &CampaignOutcome, cx: &Ctx) -> Unit {
        let t = &cx.tracer;
        let mut unit = Unit::default();
        let mut check = |ok: bool, what: &str| {
            unit.attempted += 1;
            if !ok {
                unit.failed += 1;
                eprintln!("FAILED triage-io: {what}");
            }
        };
        let scenario = Timed::new(self.arms[0].scenario.as_ref(), None, cx);
        self.artifact_bytes = 0;
        for failure in &outcome.failures {
            let seed = failure.report.seed;
            let Some(path) = &failure.artifact else {
                check(false, &format!("seed {seed}: no artifact written"));
                continue;
            };
            self.artifact_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
            let replayed = cx.call(|| {
                cx.op("harness.triage", seed, seed, || {
                    let artifact = t.span("harness.artifact_read", seed, || read_artifact(path))?;
                    let report = t.span("harness.replay", seed, || {
                        replay_artifact(&scenario, &artifact)
                    })?;
                    Ok::<_, cb_harness::ReplayError>((artifact, report))
                })
            });
            match replayed {
                Err(e) => check(false, &format!("seed {seed}: {e}")),
                Ok((artifact, report)) => {
                    unit.steps += report.events_processed;
                    check(
                        report.fingerprint == artifact.fingerprint
                            && report.fingerprint == failure.report.fingerprint,
                        &format!("seed {seed}: replay fingerprint differs"),
                    );
                }
            }
        }

        let _ = std::fs::remove_dir_all(&self.corpus_dir);
        let mut corpus = Corpus::new();
        let ingested = cx.call(|| {
            t.span("corpus.ingest_dir", 0, || {
                corpus.ingest_dir(&self.artifacts)
            })
        });
        check(
            ingested
                .as_ref()
                .is_ok_and(|&n| n == outcome.failures.len()),
            &format!("ingest_dir: {ingested:?} of {}", outcome.failures.len()),
        );
        let saved = cx.call(|| t.span("corpus.save", 0, || corpus.save(&self.corpus_dir)));
        check(saved.is_ok(), "corpus save");
        let index = corpus.index_bytes();
        self.index_bytes = index.len() as u64;
        for q in 0..self.questions {
            let question = || {
                let loaded = t.span("corpus.load", q, || Corpus::load(&self.corpus_dir))?;
                let red = t.span("corpus.select", q, || {
                    select(&loaded, &Predicate::OracleFailed("kv.linearizable".into())).len()
                });
                let blamed = t.span("corpus.top_blame", q, || top_blame(&loaded, 3).len());
                let report = t.span("corpus.diff", q, || {
                    diff(&self.baseline, &loaded, &DiffConfig::default())
                });
                Ok::<_, cb_corpus::CorpusError>((loaded, red, blamed, report))
            };
            let answered = cx.call(|| t.span("corpus.question", q, question));
            match answered {
                Err(e) => check(false, &format!("corpus load: {e}")),
                Ok((loaded, red, _blamed, report)) => {
                    check(loaded.index_bytes() == index, "load(save(c)) index differs");
                    check(red == outcome.failures.len(), "select misses red seeds");
                    check(
                        report.regressed(),
                        "diff against the stock baseline flags nothing",
                    );
                    let own = diff(&loaded, &loaded, &DiffConfig::default());
                    check(!own.regressed(), "self-diff is not empty");
                }
            }
        }
        unit
    }

    /// Sweeps with `sweep`, then does the rest of the journey.
    fn journey(
        &mut self,
        cx: &Ctx,
        sweep: impl FnOnce(&[Arm], u64, &Path) -> (Unit, Vec<CampaignOutcome>),
    ) -> Unit {
        let _ = std::fs::remove_dir_all(&self.artifacts);
        let (mut unit, mut outcomes) = sweep(&self.arms, self.base_seed, &self.artifacts);
        let outcome = outcomes.remove(0);
        // The journey's work follows the red seeds, and how many of the
        // eight are red varies with `--seed`: count those as the operations.
        unit.ops = outcome.failures.len() as u64;
        unit.add(self.after_sweep(&outcome, cx));
        self.last = vec![outcome];
        unit
    }
}

impl Workload for Triage {
    fn parallel(&self) -> bool {
        true
    }

    fn unit(&mut self, workers: usize, cx: &Ctx) -> Unit {
        // The sweep's runs are not this workload's operation: read + replay is.
        self.journey(cx, |arms, seed, dir| {
            sweep(arms, seed, workers, dir, false, cx)
        })
    }

    fn traced_unit(&mut self, cx: &Ctx) -> Unit {
        self.journey(cx, |arms, seed, dir| {
            sweep_traced(arms, seed, dir, false, cx)
        })
    }

    fn layer_metrics(&mut self, spans: &[Span], out: &mut Metrics) {
        sweep_metrics(&self.arms, &self.last, spans, out);
        let sum = |name| durations_of(spans, name).iter().sum::<f64>();
        let mb = self.artifact_bytes as f64 / 1e6;
        let mut put = |name: &str, v: f64| out.insert(name.into(), v);
        put(
            "harness.artifact_parse_mb_per_s",
            mb / (sum("harness.artifact_read") / 1e9),
        );
        put(
            "corpus.ingest_mb_per_s",
            mb / (sum("corpus.ingest_dir") / 1e9),
        );
        put(
            "corpus.save_ms",
            median(&durations_of(spans, "corpus.save")) / 1e6,
        );
        put(
            "corpus.load_ms",
            median(&durations_of(spans, "corpus.load")) / 1e6,
        );
        put(
            "corpus.select_us",
            median(&durations_of(spans, "corpus.select")) / 1e3,
        );
        put(
            "corpus.top_blame_us",
            median(&durations_of(spans, "corpus.top_blame")) / 1e3,
        );
        put(
            "corpus.diff_ms",
            median(&durations_of(spans, "corpus.diff")) / 1e6,
        );
        put(
            "corpus.query_ms_p50",
            median(&durations_of(spans, "corpus.question")) / 1e6,
        );
        put("corpus.index_bytes", self.index_bytes as f64);
        crate::probes::failure_probes(&self.last[0], out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "takes a minute: run after changing kv or its oracles"]
    fn unguarded_reads_fail_only_linearizability_over_the_seed_pool() {
        let scratch = std::env::temp_dir().join(format!("cb-benchmark-kv-{}", std::process::id()));
        let triage = Triage::new(0, Scale::Smoke, &scratch);
        crate::workloads::tests::assert_green_over_pool(&triage.arms);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
