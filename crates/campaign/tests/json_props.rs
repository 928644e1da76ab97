//! Property tests for the JSON layer and the cache's read path: the parser
//! never panics, the writer and the tree round-trip, a corrupted cache entry
//! is a miss (or reads exactly as the tree would read it), stored outcomes
//! come back bit for bit however an entry's fields are ordered, and the
//! artifacts of every outcome kind read back bit for bit as well.
//!
//! Strings, trees and outcomes are built from one generated seed each.

use proptest::prelude::*;
use quarc_campaign::artifact::{campaign_csv, campaign_json};
use quarc_campaign::{
    CampaignSpec, Converged, Json, MeanCi, MergedRun, PointOutcomeKind, PointResult, Probe,
    RateAxis, RepOutcome, ResultCache, SaturationResult,
};
use quarc_engine::stats::LatencyHistogram;
use std::path::{Path, PathBuf};

/// A SplitMix64 stream: everything below is drawn from it.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }

    /// A finite float: any bit pattern, or a short decimal.
    fn float(&mut self) -> f64 {
        if self.next() & 1 == 0 {
            return (self.below(4_000) as f64 - 2_000.0) / 64.0;
        }
        loop {
            let x = f64::from_bits(self.next());
            if x.is_finite() {
                return x;
            }
        }
    }

    /// A string with quotes, backslashes, control characters and non-ASCII
    /// text among plain letters.
    fn string(&mut self) -> String {
        const CHARS: [char; 14] = [
            'a',
            'Z',
            '7',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\t',
            '\u{1}',
            'é',
            '€',
            '\u{1f600}',
            '\u{7f}',
        ];
        (0..self.below(10))
            .map(|_| match self.below(4) {
                0 => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                _ => self.pick(&CHARS),
            })
            .collect()
    }

    /// A tree at most `depth` containers deep.
    fn tree(&mut self, depth: u32) -> Json {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(self.next() & 1 == 1),
            // Often above 2^53, where an f64 would round.
            2 => Json::UInt(self.next() >> self.below(64)),
            3 => number(self.float()),
            4 => Json::Str(self.string()),
            5 => Json::Arr((0..self.below(4)).map(|_| self.tree(depth - 1)).collect()),
            _ => Json::Obj(
                (0..self.below(4)).map(|_| (self.string(), self.tree(depth - 1))).collect(),
            ),
        }
    }

    fn hist(&mut self) -> LatencyHistogram {
        let mut buckets = [0u64; 65];
        for _ in 0..self.below(6) {
            buckets[self.below(65) as usize] = self.next() >> self.below(64);
        }
        LatencyHistogram::from_parts(buckets, ((self.next() as u128) << self.below(64)) | 7)
    }

    fn rep(&mut self) -> RepOutcome {
        RepOutcome {
            unicast_mean: self.float(),
            bcast_reception_mean: self.float(),
            bcast_completion_mean: self.float(),
            throughput: self.float(),
            unicast_hist: self.hist(),
            bcast_hist: self.hist(),
            saturated: self.next() & 1 == 1,
            delivered_fraction: self.float(),
            undeliverable: self.next() >> self.below(64),
            retransmissions: self.next() >> self.below(64),
            recovered_receivers: self.next() >> self.below(64),
        }
    }

    fn search(&mut self) -> SaturationResult {
        SaturationResult {
            sustained: self.float(),
            collapsed: (self.next() & 1 == 1).then(|| self.float()),
            probes: (0..self.below(5))
                .map(|_| Probe { rate: self.float(), saturated: self.next() & 1 == 1 })
                .collect(),
        }
    }

    fn mean_ci(&mut self) -> MeanCi {
        MeanCi { mean: self.float(), ci95: self.float(), n: self.next() as u32 }
    }

    /// An outcome of any kind, its floats finite (a NaN renders `null`).
    fn outcome(&mut self) -> PointOutcomeKind {
        let rate = self.float();
        match self.below(4) {
            0 => PointOutcomeKind::Rate {
                rate,
                merged: MergedRun {
                    reps: self.next() as u32,
                    unicast_mean: self.mean_ci(),
                    bcast_reception_mean: self.mean_ci(),
                    bcast_completion_mean: self.mean_ci(),
                    throughput: self.mean_ci(),
                    unicast_p95: (self.next() & 1 == 1).then(|| self.next()),
                    bcast_completion_p95: (self.next() & 1 == 1).then(|| self.next()),
                    unicast_samples: self.next(),
                    bcast_samples: self.next() >> self.below(64),
                    saturated_reps: self.next() as u32,
                    saturated: self.next() & 1 == 1,
                    delivered_fraction: self.mean_ci(),
                    undeliverable: self.next(),
                    retransmissions: self.next() >> self.below(64),
                    recovered_receivers: self.next(),
                    converged: self.pick(&[
                        Converged::Yes,
                        Converged::No,
                        Converged::AbandonedSaturated,
                    ]),
                },
            },
            1 => PointOutcomeKind::Saturation(self.search()),
            2 => PointOutcomeKind::Stalled {
                rate,
                rep: self.next() as u32,
                cycle: self.next(),
                diagnostics: self.string(),
            },
            _ => PointOutcomeKind::Failed { reason: self.string() },
        }
    }

    /// `v` with every object's fields reversed, an unknown field inserted
    /// and a wrongly typed repeat of its first field appended (the first
    /// occurrence of a key wins).
    fn scramble(&mut self, v: Json) -> Json {
        match v {
            Json::Arr(items) => Json::Arr(items.into_iter().map(|x| self.scramble(x)).collect()),
            Json::Obj(pairs) => {
                let repeat = pairs.first().map(|(k, _)| (k.clone(), Json::Str("ignored".into())));
                let mut pairs: Vec<_> =
                    pairs.into_iter().rev().map(|(k, x)| (k, self.scramble(x))).collect();
                let unknown =
                    Json::obj(vec![("nested", Json::Arr(vec![Json::Null, number(-1.5)]))]);
                pairs.insert(
                    self.below(pairs.len() as u64 + 1) as usize,
                    ("unknown".into(), unknown),
                );
                pairs.extend(repeat);
                Json::Obj(pairs)
            }
            other => other,
        }
    }
}

/// `x` as the tree reads it back: a float whose shortest decimal form is a
/// plain unsigned integer shares its text with [`Json::UInt`].
fn number(x: f64) -> Json {
    x.to_string().parse().map_or(Json::Num(x), Json::UInt)
}

/// Bit-for-bit equality (`-0.0` differs from `0.0`), through `Debug`'s
/// round-trip float rendering.
fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// How the value tree reads an artifact's outcome back: the reference the
/// writer's output must agree with, bit for bit.
fn outcome_via_tree(v: &Json) -> Option<PointOutcomeKind> {
    let f = |v: &Json, k: &str| v.get(k)?.as_f64();
    let u = |v: &Json, k: &str| v.get(k)?.as_u64();
    let s = |v: &Json, k: &str| Some(v.get(k)?.as_str()?.to_owned());
    let ci = |v: &Json, k: &str| {
        let v = v.get(k)?;
        Some(MeanCi { mean: f(v, "mean")?, ci95: f(v, "ci95")?, n: u(v, "n")?.try_into().ok()? })
    };
    let p95 = |v: &Json, k: &str| match v.get(k)? {
        Json::Null => Some(None),
        x => x.as_u64().map(Some),
    };
    Some(match v.get("kind")?.as_str()? {
        "rate" => {
            let m = v.get("merged")?;
            PointOutcomeKind::Rate {
                rate: f(v, "rate")?,
                merged: MergedRun {
                    reps: u(m, "reps")?.try_into().ok()?,
                    unicast_mean: ci(m, "unicast_mean")?,
                    bcast_reception_mean: ci(m, "bcast_reception_mean")?,
                    bcast_completion_mean: ci(m, "bcast_completion_mean")?,
                    throughput: ci(m, "throughput")?,
                    unicast_p95: p95(m, "unicast_p95")?,
                    bcast_completion_p95: p95(m, "bcast_completion_p95")?,
                    unicast_samples: u(m, "unicast_samples")?,
                    bcast_samples: u(m, "bcast_samples")?,
                    saturated_reps: u(m, "saturated_reps")?.try_into().ok()?,
                    saturated: m.get("saturated")?.as_bool()?,
                    delivered_fraction: ci(m, "delivered_fraction")?,
                    undeliverable: u(m, "undeliverable")?,
                    retransmissions: u(m, "retransmissions")?,
                    recovered_receivers: u(m, "recovered_receivers")?,
                    converged: match m.get("converged")? {
                        Json::Bool(true) => Converged::Yes,
                        Json::Bool(false) => Converged::No,
                        x if x.as_str()? == "abandoned-saturated" => Converged::AbandonedSaturated,
                        _ => return None,
                    },
                },
            }
        }
        "saturation" => PointOutcomeKind::Saturation(SaturationResult {
            sustained: f(v, "sustained")?,
            collapsed: match v.get("collapsed")? {
                Json::Null => None,
                x => Some(x.as_f64()?),
            },
            probes: (v.get("probes")?.as_arr()?.iter())
                .map(|p| {
                    Some(Probe { rate: f(p, "rate")?, saturated: p.get("saturated")?.as_bool()? })
                })
                .collect::<Option<_>>()?,
        }),
        "stalled" => PointOutcomeKind::Stalled {
            rate: f(v, "rate")?,
            rep: u(v, "rep")?.try_into().ok()?,
            cycle: u(v, "cycle")?,
            diagnostics: s(v, "diagnostics")?,
        },
        "failed" => PointOutcomeKind::Failed { reason: s(v, "reason")? },
        _ => return None,
    })
}

fn temp_cache(tag: &str) -> ResultCache {
    let dir = std::env::temp_dir().join(format!("quarc-json-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ResultCache::open(dir).unwrap()
}

fn entry_path(cache: &ResultCache, hash: u64) -> PathBuf {
    cache.dir().join(format!("{hash:016x}.json"))
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    std::fs::read_to_string(path).unwrap()
}

/// How the value tree reads a series entry: the reference the cache's pull
/// decoder must agree with on every input.
fn series_via_tree(text: &str, merge_key: &str) -> Option<Vec<RepOutcome>> {
    let entry = Json::parse(text).ok()?;
    if entry.get("key")?.as_str()? != merge_key || entry.get("kind")?.as_str()? != "reps" {
        return None;
    }
    let hist = |v: &Json| {
        let mut buckets = [0u64; 65];
        for pair in v.get("buckets")?.as_arr()? {
            let [k, c] = pair.as_arr()? else { return None };
            *buckets.get_mut(k.as_u64()? as usize)? = c.as_u64()?;
        }
        Some(LatencyHistogram::from_parts(buckets, v.get("total")?.as_str()?.parse().ok()?))
    };
    let f = |v: &Json, k: &str| v.get(k)?.as_f64();
    let u = |v: &Json, k: &str| v.get(k)?.as_u64();
    let rep = |v: &Json| {
        Some(RepOutcome {
            unicast_mean: f(v, "unicast_mean")?,
            bcast_reception_mean: f(v, "bcast_reception_mean")?,
            bcast_completion_mean: f(v, "bcast_completion_mean")?,
            throughput: f(v, "throughput")?,
            unicast_hist: hist(v.get("unicast_hist")?)?,
            bcast_hist: hist(v.get("bcast_hist")?)?,
            saturated: v.get("saturated")?.as_bool()?,
            delivered_fraction: f(v, "delivered_fraction")?,
            undeliverable: u(v, "undeliverable")?,
            retransmissions: u(v, "retransmissions")?,
            recovered_receivers: u(v, "recovered_receivers")?,
        })
    };
    entry.get("payload")?.as_arr()?.iter().map(rep).collect()
}

/// Substitute each of `bytes` at every position of a committed series
/// entry: each load must miss, or return a series exactly as the tree reads
/// the same bytes (a digit may change a number, never a panic or a
/// disagreement).
fn check_substitutions(tag: &str, bytes: &[u8]) {
    let text = golden("golden-fixed.cache.json");
    let key = Json::parse(&text).unwrap().get("key").and_then(Json::as_str).unwrap().to_owned();
    let cache = temp_cache(&format!("substitute-{tag}"));
    for &byte in bytes {
        for at in 0..text.len() {
            let mut entry = text.clone().into_bytes();
            entry[at] = byte;
            std::fs::write(entry_path(&cache, 3), &entry).unwrap();
            let got = cache.load_series(3, &key);
            let want = std::str::from_utf8(&entry).ok().and_then(|t| series_via_tree(t, &key));
            assert!(same_bits(&got, &want), "byte {byte:#x} at {at}");
        }
    }
    std::fs::remove_dir_all(cache.dir()).unwrap();
}

/// Every substitution by a byte of JSON's own grammar.
#[test]
fn grammar_substitutions_miss_or_read_as_the_tree_does() {
    check_substitutions("grammar", b"\"\\{}[],:-+.eE0 9tfnu\n\x01");
}

/// Every prefix of a committed cache entry is a miss, except the one that
/// drops only trailing whitespace, which reads back whole.
#[test]
fn truncated_entries_miss() {
    let cache = temp_cache("truncate");
    for name in ["golden-fixed.cache.json", "golden-sat.cache.json"] {
        let text = golden(name);
        let key = Json::parse(&text).unwrap().get("key").and_then(Json::as_str).unwrap().to_owned();
        let load = || match name {
            "golden-sat.cache.json" => cache.load_saturation(1, &key).map(|s| format!("{s:?}")),
            _ => cache.load_series(1, &key).map(|s| format!("{s:?}")),
        };
        std::fs::write(entry_path(&cache, 1), &text).unwrap();
        let whole = load().expect("the committed entry loads");
        for len in 0..text.len() {
            std::fs::write(entry_path(&cache, 1), &text[..len]).unwrap();
            if let Some(got) = load() {
                assert!(text[len..].trim().is_empty(), "{name}: prefix {len} loaded");
                assert_eq!(got, whole, "{name}: prefix {len}");
            }
        }
    }
    std::fs::remove_dir_all(cache.dir()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary text built from JSON's own alphabet, and corrupted
    /// renderings of real trees, parse or fail — never panic.
    #[test]
    fn parse_never_panics(seed in any::<u64>()) {
        const TOKENS: [&str; 24] = [
            "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "d83d", "0", "1", "9", "-", "+",
            ".", "e", "E", "true", "nul", " ", "\n", "é", "\u{1}",
        ];
        let mut g = Gen(seed);
        let soup: String = (0..g.below(40)).map(|_| g.pick(&TOKENS)).collect();
        let _ = Json::parse(&soup);
        let mut text = g.tree(3).to_compact();
        if !text.is_empty() {
            let at = g.below(text.len() as u64) as usize;
            if text.is_char_boundary(at) {
                text.truncate(at);
                text.push_str(g.pick(&TOKENS));
            }
        }
        let _ = Json::parse(&text);
    }

    /// The writer's output parses back to the tree it rendered.
    #[test]
    fn trees_roundtrip(seed in any::<u64>()) {
        let v = Gen(seed).tree(4);
        prop_assert_eq!(Json::parse(&v.to_pretty()), Ok(v.clone()));
        prop_assert_eq!(Json::parse(&v.to_compact()), Ok(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Points of every outcome kind, with escape-heavy strings and extreme
    /// finite floats: the artifact JSON parses, and its strings and numbers
    /// read back bit for bit; every CSV row has the header's column count.
    #[test]
    fn artifacts_of_every_kind_read_back(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let mut spec = CampaignSpec::new("props");
        spec.rates = RateAxis::Explicit(vec![0.01]);
        let mut point = spec.expand().unwrap().points[0];
        // Past expansion, which would reject them, any floats render.
        spec.betas = vec![g.float()];
        point.curve.beta = g.float();
        let results: Vec<PointResult> = (0..1 + g.below(8) as usize)
            .map(|id| PointResult {
                id,
                label: g.string(),
                point,
                content_hash: g.next(),
                from_cache: g.next() & 1 == 1,
                outcome: g.outcome(),
            })
            .collect();
        let skipped = vec![g.string()];
        let doc = Json::parse(&campaign_json(&spec, &results, &skipped).to_pretty()).unwrap();
        prop_assert_eq!(doc.get("skipped"), Some(&Json::Arr(vec![Json::Str(skipped[0].clone())])));
        let betas = doc.get("spec").and_then(|s| s.get("betas")).and_then(Json::as_arr).unwrap();
        prop_assert!(same_bits(&betas[0].as_f64(), &Some(spec.betas[0])));
        let points = doc.get("points").and_then(Json::as_arr).unwrap();
        prop_assert_eq!(points.len(), results.len());
        for (p, r) in points.iter().zip(&results) {
            prop_assert_eq!(p.get("label").and_then(Json::as_str), Some(r.label.as_str()));
            let hash = format!("{:016x}", r.content_hash);
            prop_assert_eq!(p.get("content_hash").and_then(Json::as_str), Some(hash.as_str()));
            let outcome = p.get("outcome").and_then(outcome_via_tree);
            prop_assert!(same_bits(&outcome, &Some(r.outcome.clone())), "{:?}", r.outcome);
        }
        let csv = campaign_csv(&results);
        let columns = PointResult::csv_header().split(',').count();
        prop_assert_eq!(csv.lines().count(), 1 + results.len());
        for row in csv.lines() {
            prop_assert_eq!(row.split(',').count(), columns, "{}", row);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Substituting an arbitrary byte at every position of a committed
    /// cache entry: see [`check_substitutions`].
    #[test]
    fn substituted_entries_miss_or_read_as_the_tree_does(byte in any::<u8>()) {
        check_substitutions(&format!("any-{byte:x}"), &[byte]);
    }

    /// Stored series and searches load back bit for bit, also from entries
    /// whose fields were reordered, padded with an unknown field and
    /// repeated.
    #[test]
    fn outcomes_roundtrip_through_the_cache(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let cache = temp_cache(&format!("roundtrip-{seed:x}"));
        let series: Vec<RepOutcome> = (0..1 + g.below(4)).map(|_| g.rep()).collect();
        let search = g.search();
        cache.store_series(4, "series-key", &series).unwrap();
        cache.store_saturation(5, "search-key", &search).unwrap();
        let check = |pass| {
            let got = cache.load_series(4, "series-key");
            assert!(same_bits(&got, &Some(series.clone())), "{pass} series");
            let got = cache.load_saturation(5, "search-key");
            assert!(same_bits(&got, &Some(search.clone())), "{pass} search");
        };
        check("stored");
        for hash in [4, 5] {
            let path = entry_path(&cache, hash);
            let entry = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
            std::fs::write(&path, g.scramble(entry).to_pretty()).unwrap();
        }
        check("scrambled");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}
