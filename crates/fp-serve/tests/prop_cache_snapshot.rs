//! Property suite for the solution cache's snapshot file, one JSON line
//! per entry.
//!
//! Random entries survive `SolutionCache::save` → `load` into a fresh
//! cache: each keeps its canonical text and encoded response, and the
//! fresh cache holds them in the same recency order. A saved snapshot
//! whose lines are truncated, carry a byte that is not UTF-8 or lose a
//! field loads without a panic, and only the damaged lines are skipped.

use fp_serve::cache::SolutionCache;
use fp_serve::JobResponse;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

/// String pieces that exercise the snapshot's escaping: quotes,
/// backslashes, tabs, newlines, multi-byte UTF-8 and JSON punctuation.
const PIECES: [&str; 14] = [
    "m1",
    " 4 2",
    ";",
    "\"",
    "\\",
    "\t",
    "\n",
    "\r",
    "é",
    "😀",
    "{",
    "}",
    ",\"resp\":",
    "\\u0041",
];

fn text() -> impl Strategy<Value = String> {
    vec(0..PIECES.len(), 0..10).prop_map(|ks| ks.into_iter().map(|k| PIECES[k]).collect())
}

/// One cache entry: key, canonical text and response. Keys come from a
/// small range so that later entries often replace earlier ones.
fn entry() -> impl Strategy<Value = (u64, String, JobResponse)> {
    let numbers = (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1.0, 0.0f64..1e9);
    let flags = (any::<bool>(), any::<bool>(), 0u64..1 << 53);
    (0u64..12, text(), text(), text(), numbers, flags).prop_map(
        |(key, canon, placement, backend, numbers, flags)| {
            let (chip_width, chip_height, utilization, wirelength) = numbers;
            let (degraded, portfolio, fingerprint) = flags;
            let mut resp = JobResponse::failure(0, "");
            resp.ok = true;
            resp.chip_width = chip_width;
            resp.chip_height = chip_height;
            resp.area = chip_width * chip_height;
            resp.utilization = utilization;
            resp.wirelength = wirelength;
            resp.degraded = degraded;
            resp.portfolio = portfolio;
            resp.fingerprint = fingerprint;
            resp.backend = backend;
            resp.placement = placement;
            // Spread keys over all 64 bits so the hex key is full width.
            (key.wrapping_mul(0x9e37_79b9_7f4a_7c15), canon, resp)
        },
    )
}

/// A snapshot path unique to one test, removed when dropped.
struct TempPath(PathBuf);

impl TempPath {
    fn new(name: &str) -> Self {
        let file = format!("fp-serve-prop-snapshot-{}-{name}.jsonl", std::process::id());
        TempPath(std::env::temp_dir().join(file))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// The `(key, canon, encoded response)` of every line of a snapshot, in
/// file order.
fn snapshot_entries(path: &TempPath) -> Vec<(String, String, String)> {
    let text = std::fs::read_to_string(&path.0).expect("snapshot");
    text.lines()
        .map(|line| {
            let p = fp_obs::parse_line(line).expect("a saved line parses");
            let field = |k: &str| p.str_field(k).expect("a saved field").to_string();
            (field("key"), field("canon"), field("resp"))
        })
        .collect()
}

/// One way to damage a saved line so that it no longer decodes.
#[derive(Debug, Clone)]
enum Damage {
    /// Cut the line before its closing brace, at a fraction of its length.
    Truncate(f64),
    /// Turn on the top five bits of one byte, at a fraction of the line's
    /// length: the result is never valid UTF-8.
    Flip(f64),
    /// Drop the `key`, `canon` or `resp` field.
    Drop(usize),
}

fn damage() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Damage::Truncate),
        (0.0f64..1.0).prop_map(Damage::Flip),
        (0usize..3).prop_map(Damage::Drop),
    ]
}

/// Applies `damage` to one saved line.
fn apply(line: &[u8], damage: &Damage) -> Vec<u8> {
    let at = |f: f64| ((f * line.len() as f64) as usize).min(line.len() - 1);
    let find = |pat: &str| {
        line.windows(pat.len())
            .position(|w| w == pat.as_bytes())
            .expect("a saved line carries every field")
    };
    match *damage {
        Damage::Truncate(f) => line[..at(f)].to_vec(),
        Damage::Flip(f) => {
            let mut out = line.to_vec();
            out[at(f)] |= 0xf8;
            out
        }
        Damage::Drop(field) => {
            // Inside the JSON strings every quote is escaped, so the first
            // `,"canon":` and `,"resp":` are the field separators.
            let (canon, resp) = (find(",\"canon\":"), find(",\"resp\":"));
            let (from, to) = match field {
                0 => (1, canon + 1),
                1 => (canon, resp),
                _ => (resp, line.len() - 1),
            };
            [&line[..from], &line[to..]].concat()
        }
    }
}

proptest! {
    #[test]
    fn snapshots_round_trip_entries_and_recency(
        pool in vec(entry(), 1..8),
        ops in vec((any::<bool>(), 0usize..8), 0..24),
        capacity in 1usize..8,
    ) {
        let path = TempPath::new("round-trip");
        let cache = SolutionCache::new(capacity);
        // The expected contents, least recently used first.
        let mut model: Vec<(u64, String, String)> = Vec::new();
        let mut touch = |k: usize, insert: bool| -> Result<(), TestCaseError> {
            let (key, canon, resp) = &pool[k % pool.len()];
            let at = model.iter().position(|(m, ..)| m == key);
            if insert {
                cache.insert(*key, Arc::from(canon.as_str()), resp.clone());
                if at.is_none() && model.len() >= capacity {
                    model.remove(0);
                }
                model.retain(|(m, ..)| m != key);
                model.push((*key, canon.clone(), resp.encode()));
            } else {
                let hit = at.filter(|&i| model[i].1 == *canon);
                prop_assert_eq!(cache.get(*key, canon).is_some(), hit.is_some());
                if let Some(i) = hit {
                    let entry = model.remove(i);
                    model.push(entry);
                }
            }
            Ok(())
        };
        for k in 0..pool.len() {
            touch(k, true)?;
        }
        for &(insert, k) in &ops {
            touch(k, insert)?;
        }

        cache.save(&path.0).unwrap();
        let expected: Vec<(String, String, String)> = model
            .iter()
            .map(|(key, canon, resp)| (format!("{key:016x}"), canon.clone(), resp.clone()))
            .collect();
        prop_assert_eq!(snapshot_entries(&path), expected.clone());

        let fresh = SolutionCache::new(capacity);
        prop_assert_eq!(fresh.load(&path.0).unwrap(), model.len());
        fresh.save(&path.0).unwrap();
        prop_assert_eq!(snapshot_entries(&path), expected);
        for (key, canon, resp) in &model {
            let got = fresh.get(*key, canon).map(|r| r.encode());
            prop_assert_eq!(got.as_ref(), Some(resp));
        }
    }

    #[test]
    fn damaged_lines_alone_are_skipped(
        pool in vec(entry(), 1..8),
        damages in vec((0usize..8, damage()), 1..4),
    ) {
        let path = TempPath::new("damaged");
        let cache = SolutionCache::new(pool.len());
        for (key, canon, resp) in &pool {
            cache.insert(*key, Arc::from(canon.as_str()), resp.clone());
        }
        cache.save(&path.0).unwrap();
        let saved = snapshot_entries(&path);
        let bytes = std::fs::read(&path.0).unwrap();
        let mut lines: Vec<Vec<u8>> = bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.is_empty())
            .map(<[u8]>::to_vec)
            .collect();
        let mut damaged = vec![false; lines.len()];
        for (i, d) in &damages {
            // One damage per line: a second one could not find its field.
            let i = i % lines.len();
            if !damaged[i] {
                lines[i] = apply(&lines[i], d);
                damaged[i] = true;
            }
        }
        let mut file = lines.join(&b'\n');
        file.push(b'\n');
        std::fs::write(&path.0, file).unwrap();

        let fresh = SolutionCache::new(pool.len());
        let kept = damaged.iter().filter(|&&d| !d).count();
        prop_assert_eq!(fresh.load(&path.0).unwrap(), kept);
        fresh.save(&path.0).unwrap();
        let survivors: Vec<(String, String, String)> = saved
            .into_iter()
            .zip(&damaged)
            .filter(|(_, &d)| !d)
            .map(|(entry, _)| entry)
            .collect();
        prop_assert_eq!(snapshot_entries(&path), survivors);
    }
}
