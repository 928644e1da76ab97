//! The on-disk result cache.
//!
//! Every point's work is stored in `<dir>/<hash16>.json`, keyed by the
//! FNV-1a hash of the point's canonical *merge key* (which deliberately
//! excludes the replication protocol — see `CampaignPoint::merge_key`). The
//! entry's key, `<merge key>|beh=<hex>`, adds the simulator [`BEHAVIOUR`]
//! that computed it and is verified on load, so a (vanishingly unlikely)
//! hash collision, a stale file of an older format or an entry of another
//! simulator behaviour degrades to a miss, never to wrong numbers, and the
//! next store replaces it in place.
//!
//! Fixed-rate points store their **replication series** — one
//! [`RepOutcome`] per seed, in replication-index order — rather than a
//! merged summary. That makes entries *upgradeable*: a campaign that needs
//! more replications (a convergence policy with a still-too-wide CI, or a
//! larger fixed count) resumes the stored series and simulates only the
//! missing tail, and one that needs fewer merges a prefix. Either way the
//! cache can change how much is simulated, never a reported number.
//! Saturation searches store their result whole, as before.
//!
//! Entries stream from the records through the one JSON writer into a
//! single buffer, which replaces the entry atomically (a temp file in the
//! cache directory, then a rename; the temp file is removed if either step
//! fails), so a crashed or concurrent campaign never leaves a torn entry.
//! They are read back through the pull reader straight into
//! [`RepOutcome`]s / a [`SaturationResult`]; neither direction builds a
//! value tree. A missing or unreadable file, malformed JSON, a wrong key or
//! kind, or a payload that does not decode is a miss, never a panic.

use crate::artifact::write_atomically;
use crate::hash::BEHAVIOUR;
use crate::json::{read_fields, Decode, Encode, Parsed, Reader, Writer};
use crate::replicate::RepOutcome;
use crate::saturation::SaturationResult;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::LazyLock;

/// Initial buffer of an entry: a series of a few replications fits.
const ENTRY_RESERVE: usize = 16 << 10;

/// What follows the merge key in an entry's `key`: the simulator behaviour
/// that computed the entry.
static TAG: LazyLock<String> = LazyLock::new(|| format!("|beh={BEHAVIOUR:016x}"));

/// A directory of cached point outcomes.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Decode the payload of the entry at `hash` with `decode`, if the
    /// entry's key is `merge_key` followed by [`TAG`] and its kind is `entry_kind`.
    fn load<T>(
        &self,
        hash: u64,
        merge_key: &str,
        entry_kind: &str,
        decode: fn(&mut Reader<'_>) -> Parsed<T>,
    ) -> Option<T> {
        let text = std::fs::read_to_string(self.path_for(hash)).ok()?;
        let r = &mut Reader::new(&text);
        (|| -> Parsed<T> {
            read_fields!(r {
                key: |r| {
                    let tagged = r.str()?.strip_prefix(merge_key).is_some_and(|tag| tag == *TAG);
                    tagged.then_some(()).ok_or_else(|| r.error("unexpected string"))
                },
                kind: |r| r.expect_str(entry_kind),
                payload: decode,
            });
            let ((), ()) = (key, kind); // checked as they were read
            r.finish()?;
            Ok(payload)
        })()
        .ok()
    }

    fn store_entry(
        &self,
        hash: u64,
        merge_key: &str,
        kind: &str,
        payload: impl Encode,
    ) -> io::Result<()> {
        let mut w = Writer::pretty(ENTRY_RESERVE);
        w.open('{').key("key").display(format_args!("{merge_key}{}", *TAG));
        w.field("kind", kind).field("payload", payload);
        w.close('}');
        write_atomically(&self.path_for(hash), w.finish().as_bytes())
    }

    /// Look up the replication series for `(hash, merge_key)`. Any malformed
    /// entry, key mismatch or entry of the wrong kind is treated as a miss.
    pub fn load_series(&self, hash: u64, merge_key: &str) -> Option<Vec<RepOutcome>> {
        self.load(hash, merge_key, "reps", Decode::decode)
    }

    /// Store a replication series (replaces any previous entry whole — the
    /// series only ever grows, so the newest version is always the
    /// superset).
    pub fn store_series(
        &self,
        hash: u64,
        merge_key: &str,
        series: &[RepOutcome],
    ) -> io::Result<()> {
        self.store_entry(hash, merge_key, "reps", series)
    }

    /// Look up a saturation-search result.
    pub fn load_saturation(&self, hash: u64, merge_key: &str) -> Option<SaturationResult> {
        // Anything but a search under a "saturation" kind is a malformed
        // entry: quarantine outcomes in particular are never cached.
        self.load(hash, merge_key, "saturation", SaturationResult::decode)
    }

    /// Store a saturation-search result.
    pub fn store_saturation(
        &self,
        hash: u64,
        merge_key: &str,
        result: &SaturationResult,
    ) -> io::Result<()> {
        self.store_entry(hash, merge_key, "saturation", result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replicate::extend_series;
    use crate::saturation::Probe;
    use quarc_core::config::NocConfig;
    use quarc_sim::{PointSpec, RunSpec};
    use quarc_workloads::SyntheticConfig;

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("quarc-campaign-cache-{tag}-{}", std::process::id()))
    }

    /// Files in the cache directory — entries and any stray temp file.
    fn files(cache: &ResultCache) -> usize {
        std::fs::read_dir(cache.dir()).unwrap().count()
    }

    fn sample_series(reps: u32) -> Vec<RepOutcome> {
        let template = PointSpec {
            noc: NocConfig::quarc(8),
            traffic: SyntheticConfig::paper(0.01, 4, 0.05, 0),
        };
        let run = RunSpec { warmup: 100, measure: 600, drain: 1_200, ..Default::default() };
        let mut series = Vec::new();
        assert!(extend_series(&mut series, &template, &run, 7, 11, reps, None).is_none());
        series
    }

    #[test]
    fn series_store_then_load_roundtrips_bit_exactly() {
        let dir = unique_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(files(&cache), 0);
        let series = sample_series(3);
        cache.store_series(42, "key-a", &series).unwrap();
        assert_eq!(files(&cache), 1);
        assert_eq!(cache.load_series(42, "key-a"), Some(series));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn growing_series_replaces_the_entry() {
        let dir = unique_dir("grow");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let series = sample_series(4);
        cache.store_series(42, "key-a", &series[..2]).unwrap();
        assert_eq!(cache.load_series(42, "key-a").unwrap().len(), 2);
        // A top-up stores the full series; the old entry is superseded.
        cache.store_series(42, "key-a", &series).unwrap();
        assert_eq!(files(&cache), 1);
        assert_eq!(cache.load_series(42, "key-a"), Some(series));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saturation_store_then_load_roundtrips() {
        let dir = unique_dir("sat");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let result = SaturationResult {
            sustained: 0.021,
            collapsed: Some(0.023),
            probes: vec![
                Probe { rate: 0.01, saturated: false },
                Probe { rate: 0.04, saturated: true },
            ],
        };
        cache.store_saturation(9, "sat-key", &result).unwrap();
        assert_eq!(cache.load_saturation(9, "sat-key"), Some(result));
        // A saturation entry never serves a series lookup, and vice versa.
        assert_eq!(cache.load_series(9, "sat-key"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let dir = unique_dir("mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        cache.store_series(7, "the-real-key", &sample_series(1)).unwrap();
        assert_eq!(cache.load_series(7, "a-colliding-key"), None);
        assert_eq!(cache.load_series(8, "the-real-key"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn entry_of_another_behaviour_is_a_miss_and_is_replaced_in_place() {
        let dir = unique_dir("behaviour");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        let series = sample_series(1);
        cache.store_series(3, "k", &series).unwrap();
        let text = std::fs::read_to_string(cache.path_for(3)).unwrap();
        let current = format!("\"key\": \"k|beh={BEHAVIOUR:016x}\"");
        assert!(text.contains(&current), "{text}");
        // Another simulator's entry, and one written before entries were
        // tagged.
        for stale in ["\"key\": \"k|beh=0000000000000000\"", "\"key\": \"k\""] {
            std::fs::write(cache.path_for(3), text.replace(&current, stale)).unwrap();
            assert_eq!(cache.load_series(3, "k"), None, "{stale} was served");
        }
        // The re-simulated series replaces the stale entry.
        cache.store_series(3, "k", &series).unwrap();
        assert_eq!(files(&cache), 1);
        assert_eq!(cache.load_series(3, "k"), Some(series));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_store_leaves_no_temp_file() {
        let dir = unique_dir("atomic");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        // A directory holds the entry's name, so the rename onto it fails.
        std::fs::create_dir(cache.path_for(5)).unwrap();
        assert!(cache.store_series(5, "k", &[]).is_err());
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, [cache.path_for(5).file_name().unwrap()], "a temp file is left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = unique_dir("corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ResultCache::open(&dir).unwrap();
        std::fs::write(dir.join(format!("{:016x}.json", 9u64)), "{ not json").unwrap();
        assert_eq!(cache.load_series(9, "k"), None);
        assert_eq!(cache.load_saturation(9, "k"), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
