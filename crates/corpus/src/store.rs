//! The on-disk corpus: one deterministic, checksummed binary index.
//!
//! A corpus directory holds one file, `index.cbc` (older binaries also
//! wrote an `objects/` directory of record JSON; it is neither read nor
//! removed).
//!
//! The index interns every string into a sorted table and stores each
//! record as typed columns (u32 string refs, LE integers, bucket pairs),
//! ending with an FNV-64 checksum of everything before it — the same
//! trailer discipline as the policy pile. Records live in a `BTreeMap`
//! keyed `(scenario, seed, content_id)`, so index bytes are a pure
//! function of the record *set*: ingestion order and campaign worker
//! count cannot change them. A lost index is rebuilt by re-running the
//! sweep with `--corpus` or re-ingesting its failure artifacts, since a
//! record is a pure function of `(scenario, seed, plan)`.

use crate::fnv1a;
use crate::record::SeedRecord;
use cb_harness::campaign::CampaignOutcome;
use cb_harness::scenario::RunReport;
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the binary index inside a corpus directory.
pub const INDEX_FILE: &str = "index.cbc";

/// Magic bytes opening the index file.
pub const INDEX_MAGIC: &[u8; 8] = b"CBCORP1\n";

const INDEX_VERSION: u32 = 1;

/// Error from corpus load/save/ingest.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Bad bytes: wrong magic, truncated column, checksum mismatch, or a
    /// file that is not a failure artifact.
    Malformed(String),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "io: {e}"),
            CorpusError::Malformed(m) => write!(f, "malformed corpus: {m}"),
        }
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> CorpusError {
    CorpusError::Malformed(msg.into())
}

/// An in-memory corpus of [`SeedRecord`]s with set semantics.
///
/// Inserting the same record twice is a no-op (records are keyed by
/// content id), so re-ingesting a campaign, ingesting in any order, or
/// ingesting from any number of workers converges on identical state.
#[derive(Default, Clone)]
pub struct Corpus {
    records: BTreeMap<(String, u64, u64), SeedRecord>,
}

impl Corpus {
    /// Empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts one record (idempotent). Returns `true` if it was new.
    pub fn insert(&mut self, record: SeedRecord) -> bool {
        let key = (record.scenario.clone(), record.seed, record.content_id());
        self.records.insert(key, record).is_none()
    }

    /// Sorted iteration: by scenario, then seed, then content id.
    pub fn iter(&self) -> impl Iterator<Item = &SeedRecord> {
        self.records.values()
    }

    /// Distills and inserts one run report. Returns `true` if new.
    pub fn ingest_report(&mut self, report: &RunReport) -> bool {
        self.insert(SeedRecord::from_report(report))
    }

    /// Ingests every retained report of a campaign outcome (requires the
    /// campaign to have run with `keep_reports`). Returns how many records
    /// were new.
    pub fn ingest_outcome(&mut self, outcome: &CampaignOutcome) -> usize {
        outcome
            .reports
            .iter()
            .filter(|r| self.ingest_report(r))
            .count()
    }

    /// Ingests every `*.json` file in `dir` (non-recursive, sorted by file
    /// name — though order cannot matter). Each must be a campaign failure
    /// artifact (`cb-campaign-failure/v1`, read by the decoder replay uses,
    /// which checks the whole file but builds only what the record needs).
    /// Returns how many records were new.
    pub fn ingest_dir(&mut self, dir: &Path) -> Result<usize, CorpusError> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json") && p.is_file())
            .collect();
        paths.sort();
        // Files are read, parsed and distilled on every core; records go in
        // in sorted-path order, and nothing after the first bad file does.
        let mut fresh = 0;
        let mut failed = None;
        cb_harness::in_order(
            paths.len(),
            0,
            |i| read_record(&paths[i]),
            |_, record| match record {
                _ if failed.is_some() => {}
                Ok(record) => fresh += self.insert(record) as usize,
                Err(e) => failed = Some(e),
            },
        );
        match failed {
            Some(e) => Err(e),
            None => Ok(fresh),
        }
    }

    /// The deterministic binary index: magic, version, interned string
    /// table, typed record columns, FNV-64 trailer.
    pub fn index_bytes(&self) -> Vec<u8> {
        // Intern every string the records reference, sorted.
        let mut table: std::collections::BTreeSet<&str> = Default::default();
        for r in self.records.values() {
            table.insert(&r.scenario);
            table.insert(&r.plan);
            for (name, _) in &r.oracles {
                table.insert(name);
            }
            for k in r.counters.keys() {
                table.insert(k);
            }
            for k in r.gauges.keys() {
                table.insert(k);
            }
            for k in r.hists.keys() {
                table.insert(k);
            }
            for b in &r.blame {
                table.insert(b);
            }
        }
        let strings: Vec<&str> = table.into_iter().collect();
        let idx_of: std::collections::HashMap<&str, u32> = strings
            .iter()
            .enumerate()
            .map(|(i, s)| (*s, i as u32))
            .collect();

        let mut out = Vec::new();
        out.extend_from_slice(INDEX_MAGIC);
        put_u32(&mut out, INDEX_VERSION);
        put_u32(&mut out, strings.len() as u32);
        for s in &strings {
            put_u32(&mut out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        put_u32(&mut out, self.records.len() as u32);
        for r in self.records.values() {
            put_u32(&mut out, idx_of[r.scenario.as_str()]);
            put_u64(&mut out, r.seed);
            put_u64(&mut out, r.content_id());
            put_u64(&mut out, r.fingerprint);
            put_u64(&mut out, r.events);
            put_u32(&mut out, idx_of[r.plan.as_str()]);
            out.push(r.passed as u8);
            put_u32(&mut out, r.oracles.len() as u32);
            for (name, passed) in &r.oracles {
                put_u32(&mut out, idx_of[name.as_str()]);
                out.push(*passed as u8);
            }
            put_u32(&mut out, r.counters.len() as u32);
            for (k, v) in &r.counters {
                put_u32(&mut out, idx_of[k.as_str()]);
                put_u64(&mut out, *v);
            }
            put_u32(&mut out, r.gauges.len() as u32);
            for (k, v) in &r.gauges {
                put_u32(&mut out, idx_of[k.as_str()]);
                put_u64(&mut out, *v as u64);
            }
            put_u32(&mut out, r.hists.len() as u32);
            for (k, pairs) in &r.hists {
                put_u32(&mut out, idx_of[k.as_str()]);
                put_u32(&mut out, pairs.len() as u32);
                for (b, c) in pairs {
                    put_u32(&mut out, *b);
                    put_u64(&mut out, *c);
                }
            }
            put_u32(&mut out, r.blame.len() as u32);
            for b in &r.blame {
                put_u32(&mut out, idx_of[b.as_str()]);
            }
        }
        let sum = fnv1a(&out);
        put_u64(&mut out, sum);
        out
    }

    /// Decodes an index produced by [`Corpus::index_bytes`]. The bytes are
    /// untrusted even behind a valid checksum: a count is only ever a loop
    /// bound, so a forged one fails as a truncated index.
    pub fn from_index_bytes(bytes: &[u8]) -> Result<Corpus, CorpusError> {
        if bytes.len() < INDEX_MAGIC.len() + 4 + 8 {
            return Err(malformed("index too short"));
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(trailer.try_into().unwrap());
        let got = fnv1a(body);
        if want != got {
            return Err(malformed(format!(
                "checksum mismatch: trailer {want:#018x}, content {got:#018x}"
            )));
        }
        let mut cur = Cursor {
            bytes: body,
            pos: 0,
        };
        if cur.take(INDEX_MAGIC.len())? != INDEX_MAGIC {
            return Err(malformed("bad magic"));
        }
        let version = cur.u32()?;
        if version != INDEX_VERSION {
            return Err(malformed(format!("unsupported index version {version}")));
        }
        let n_strings = cur.u32()?;
        let mut strings = Vec::new();
        for _ in 0..n_strings {
            let len = cur.u32()? as usize;
            let raw = cur.take(len)?;
            strings.push(
                std::str::from_utf8(raw)
                    .map_err(|_| malformed("non-utf8 interned string"))?
                    .to_string(),
            );
        }
        let lookup = |i: u32| -> Result<&String, CorpusError> {
            strings
                .get(i as usize)
                .ok_or_else(|| malformed(format!("string ref {i} out of range")))
        };
        let n_records = cur.u32()? as usize;
        let mut corpus = Corpus::new();
        for _ in 0..n_records {
            let scenario = lookup(cur.u32()?)?.clone();
            let seed = cur.u64()?;
            let content_id = cur.u64()?;
            let fingerprint = cur.u64()?;
            let events = cur.u64()?;
            let plan = lookup(cur.u32()?)?.clone();
            let passed = cur.u8()? != 0;
            let mut oracles = Vec::new();
            for _ in 0..cur.u32()? {
                let name = lookup(cur.u32()?)?.clone();
                oracles.push((name, cur.u8()? != 0));
            }
            let mut counters = BTreeMap::new();
            for _ in 0..cur.u32()? {
                let k = lookup(cur.u32()?)?.clone();
                counters.insert(k, cur.u64()?);
            }
            let mut gauges = BTreeMap::new();
            for _ in 0..cur.u32()? {
                let k = lookup(cur.u32()?)?.clone();
                gauges.insert(k, cur.u64()? as i64);
            }
            let mut hists = BTreeMap::new();
            for _ in 0..cur.u32()? {
                let k = lookup(cur.u32()?)?.clone();
                let mut pairs = Vec::new();
                for _ in 0..cur.u32()? {
                    let b = cur.u32()?;
                    pairs.push((b, cur.u64()?));
                }
                hists.insert(k, pairs);
            }
            let mut blame = Vec::new();
            for _ in 0..cur.u32()? {
                blame.push(lookup(cur.u32()?)?.clone());
            }
            let record = SeedRecord {
                scenario,
                seed,
                plan,
                passed,
                fingerprint,
                events,
                oracles,
                counters,
                gauges,
                hists,
                blame,
            };
            if record.content_id() != content_id {
                return Err(malformed(format!(
                    "content id mismatch for {}/{}: stored {content_id:#018x}",
                    record.scenario, record.seed
                )));
            }
            corpus.insert(record);
        }
        if cur.pos != body.len() {
            return Err(malformed("trailing bytes after last record"));
        }
        Ok(corpus)
    }

    /// Writes `index.cbc` under `dir` (created if absent).
    pub fn save(&self, dir: &Path) -> Result<(), CorpusError> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(INDEX_FILE), self.index_bytes())?;
        Ok(())
    }

    /// Loads a corpus from `dir`'s `index.cbc`.
    pub fn load(dir: &Path) -> Result<Corpus, CorpusError> {
        let bytes = std::fs::read(dir.join(INDEX_FILE))?;
        Corpus::from_index_bytes(&bytes)
    }
}

/// Reads one campaign failure artifact and distills it into a record.
fn read_record(path: &Path) -> Result<SeedRecord, CorpusError> {
    let text = std::fs::read_to_string(path)?;
    cb_harness::decode_artifact(&text)
        .and_then(|artifact| SeedRecord::from_artifact(&artifact))
        .map_err(|e| malformed(format!("{}: {e}", path.display())))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CorpusError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| malformed("truncated index"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CorpusError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, CorpusError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, CorpusError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_harness::prelude::*;
    use cb_harness::toy::RingScenario;

    fn reports(seeds: std::ops::Range<u64>) -> Vec<RunReport> {
        let s = RingScenario::default();
        seeds.map(|seed| s.run(seed, &FaultPlan::none())).collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cb-corpus-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn index_round_trips_and_checksum_guards() {
        let mut corpus = Corpus::new();
        for r in reports(0..4) {
            assert!(corpus.ingest_report(&r));
        }
        assert_eq!(corpus.len(), 4);
        let bytes = corpus.index_bytes();
        let back = Corpus::from_index_bytes(&bytes).expect("round trip");
        assert_eq!(back.len(), 4);
        assert_eq!(back.index_bytes(), bytes);

        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xff;
        assert!(matches!(
            Corpus::from_index_bytes(&corrupt),
            Err(CorpusError::Malformed(_))
        ));
    }

    #[test]
    fn insertion_is_idempotent_and_order_invariant() {
        let rs = reports(0..5);
        let mut forward = Corpus::new();
        for r in &rs {
            forward.ingest_report(r);
        }
        let mut backward = Corpus::new();
        for r in rs.iter().rev() {
            backward.ingest_report(r);
            backward.ingest_report(r); // duplicate: no-op
        }
        assert_eq!(forward.len(), backward.len());
        assert_eq!(forward.index_bytes(), backward.index_bytes());
    }

    #[test]
    fn save_writes_only_the_index_and_loads_it_back() {
        let dir = temp_dir("saveload");
        let mut corpus = Corpus::new();
        for r in reports(0..3) {
            corpus.ingest_report(&r);
        }
        // `save` creates the directory and writes `index.cbc` alone.
        let fresh = dir.join("fresh");
        corpus.save(&fresh).expect("save");
        let names: Vec<_> = std::fs::read_dir(&fresh)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from(INDEX_FILE)]);
        let loaded = Corpus::load(&fresh).expect("load");
        assert_eq!(loaded.index_bytes(), corpus.index_bytes());

        // An `objects/` an older binary left behind is neither read nor
        // removed.
        let stale = fresh.join("objects").join("0000000000000000.json");
        std::fs::create_dir_all(stale.parent().unwrap()).unwrap();
        std::fs::write(&stale, "not json").unwrap();
        corpus.save(&fresh).expect("save over an old corpus");
        assert_eq!(std::fs::read_to_string(&stale).unwrap(), "not json");
        let loaded = Corpus::load(&fresh).expect("load");
        assert_eq!(loaded.index_bytes(), corpus.index_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingests_campaign_failure_artifacts() {
        let dir = temp_dir("artifacts");
        let s = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none().partition(&[3], &others, 0, None);
        let report = s.run(77, &plan);
        assert!(report.violated());
        cb_harness::campaign::write_artifact(&dir, &report, &report.plan, &report).unwrap();

        let mut corpus = Corpus::new();
        assert_eq!(corpus.ingest_dir(&dir).expect("ingest"), 1);
        let rec = corpus.iter().next().unwrap();
        assert_eq!(rec.seed, 77);
        assert!(!rec.passed);

        // Same run ingested in-process lands on the same record.
        let mut direct = Corpus::new();
        direct.ingest_report(&report);
        assert_eq!(direct.index_bytes(), corpus.index_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ingest_dir_equals_one_by_one_in_reverse_and_stops_at_the_first_bad_file() {
        let dir = temp_dir("manyartifacts");
        let s = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none().partition(&[3], &others, 0, None);
        let mut paths = Vec::new();
        for seed in 70..79 {
            let report = s.run(seed, &plan);
            assert!(report.violated());
            paths.push(
                cb_harness::campaign::write_artifact(&dir, &report, &report.plan, &report).unwrap(),
            );
        }
        let mut whole = Corpus::new();
        assert_eq!(whole.ingest_dir(&dir).expect("ingest"), 9);

        let mut one_by_one = Corpus::new();
        for (i, path) in paths.iter().rev().enumerate() {
            let single = temp_dir(&format!("single{i}"));
            std::fs::copy(path, single.join(path.file_name().unwrap())).unwrap();
            assert_eq!(one_by_one.ingest_dir(&single).expect("ingest"), 1);
            let _ = std::fs::remove_dir_all(&single);
        }
        assert_eq!(whole.index_bytes(), one_by_one.index_bytes());

        // Sorted by name, `ring-seed75.json` is the sixth file: the five
        // before it are in, nothing after it is.
        std::fs::write(dir.join("ring-seed75.json"), "{\"schema\":").unwrap();
        let mut partial = Corpus::new();
        let err = partial.ingest_dir(&dir).expect_err("bad file");
        assert!(err.to_string().contains("ring-seed75.json"), "{err}");
        let seeds: Vec<u64> = partial.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![70, 71, 72, 73, 74]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_object_is_refused_like_any_other_non_artifact() {
        let dir = temp_dir("recordobject");
        let s = RingScenario::default();
        let others: Vec<u32> = (0..8u32).filter(|&i| i != 3).collect();
        let plan = FaultPlan::none().partition(&[3], &others, 0, None);
        for seed in [70, 72] {
            let report = s.run(seed, &plan);
            cb_harness::campaign::write_artifact(&dir, &report, &report.plan, &report).unwrap();
        }
        // What an older `save` wrote under `objects/`, placed between them.
        let record = SeedRecord::from_report(&s.run(71, &plan));
        std::fs::write(
            dir.join("ring-seed71.json"),
            record.to_json().to_string_pretty() + "\n",
        )
        .unwrap();
        let mut corpus = Corpus::new();
        let err = corpus.ingest_dir(&dir).expect_err("record object");
        assert!(err.to_string().contains("ring-seed71.json"), "{err}");
        let seeds: Vec<u64> = corpus.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![70]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
