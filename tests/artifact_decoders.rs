//! The two decoders a red seed's artifact goes through — `read_artifact`
//! (replay) and `Corpus::ingest_dir` (corpus) — against one real kv artifact:
//!
//! 1. Golden bytes: the file `write_artifact` streams equals the artifact
//!    tree rendered pretty plus a newline, and the compact text sink equals
//!    the tree rendered compact (one shape, two sinks).
//! 2. Damage: truncated at a random byte, one bit flipped, two halves
//!    spliced, or nested deeper than any stack — both decoders return `Ok` or
//!    `Err`, never panic, overflow the stack or hang.

use cb_corpus::Corpus;
use cb_harness::prelude::*;
use cb_harness::{artifact_json, emit_artifact, write_artifact, TextSink};
use cb_kv::KvCampaign;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cb-decoders-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// kv with unguarded reads, seed 3: red on `kv.linearizable`, shrunk to no
/// faults, a 2 000-span tail per report.
fn red_kv() -> (RunReport, FaultPlan, RunReport) {
    let scenario = KvCampaign {
        unsafe_reads: true,
        ..KvCampaign::default()
    };
    let report = scenario.run(3, &scenario.default_plan(3));
    assert_eq!(report.failing_oracles(), vec!["kv.linearizable"]);
    let (shrunk, shrunk_report) = shrink_plan(&scenario, 3, &report.plan, &report);
    assert!(shrunk.is_empty(), "the planted stale read needs no fault");
    (report, shrunk, shrunk_report)
}

/// The bytes of that artifact, written once.
fn kv_artifact() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let (report, shrunk, shrunk_report) = red_kv();
        let dir = temp_dir("source");
        let path = write_artifact(&dir, &report, &shrunk, &shrunk_report).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

#[test]
fn streamed_kv_artifact_equals_the_rendered_tree() {
    let (report, shrunk, shrunk_report) = red_kv();
    let tree = artifact_json(&report, &shrunk, &shrunk_report);
    let dir = temp_dir("golden");
    let path = write_artifact(&dir, &report, &shrunk, &shrunk_report).unwrap();
    let streamed = std::fs::read_to_string(&path).unwrap();
    assert!(streamed.len() > 500_000, "a kv artifact is about 1 MB");
    assert!(streamed == tree.to_string_pretty() + "\n", "pretty differs");
    let mut compact = TextSink::new(Vec::new(), false);
    emit_artifact(&report, &shrunk, &shrunk_report, &mut compact);
    assert!(
        compact.finish().unwrap() == tree.to_string_compact().into_bytes(),
        "compact differs"
    );
    // And the undamaged file goes through both decoders.
    let artifact = read_artifact(&path).expect("reads");
    assert_eq!(artifact.fingerprint, report.fingerprint);
    assert_eq!(artifact.provenance.len(), report.provenance.len());
    let mut corpus = Corpus::new();
    assert_eq!(corpus.ingest_dir(&dir).expect("ingests"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_artifacts_are_refused_not_fatal(kind in 0u32..4, a in any::<u64>(), b in any::<u64>()) {
        let whole = kv_artifact();
        let at = |x: u64| (x % whole.len() as u64) as usize;
        let damaged: Vec<u8> = match kind {
            0 => whole[..at(a)].to_vec(),
            1 => {
                let mut bytes = whole.to_vec();
                bytes[at(a)] ^= 1 << (b % 8);
                bytes
            }
            2 => [&whole[..at(a)], &whole[at(b)..]].concat(),
            _ => {
                let mut bytes = br#"{"schema":"cb-campaign-failure/v1","x":"#.to_vec();
                let opener = if b % 2 == 0 { &b"["[..] } else { &br#"{"k":"#[..] };
                bytes.extend(opener.repeat(129 + (a % 200_000) as usize));
                bytes
            }
        };
        let dir = temp_dir("damaged");
        let path = dir.join("kv-seed3.json");
        std::fs::write(&path, &damaged).unwrap();
        // Either answer is fine; coming back is the property.
        let read = read_artifact(&path);
        let ingested = Corpus::new().ingest_dir(&dir);
        if kind == 3 {
            prop_assert!(read.is_err() && ingested.is_err(), "deep nesting must be refused");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
