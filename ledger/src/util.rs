//! Small self-contained helpers: the harness's own PRNG, order statistics,
//! the input digest, process memory, and the two flat file formats it reads.

use std::collections::BTreeMap;

/// splitmix64 — the harness's own generator for mixing, sampling and arrival
/// schedules, so nothing here depends on the repo's `rand` stand-in.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent stream seed for one named input of one run.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the data at or below it. `0.0` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample in place and returns `(p50, p95)`.
pub fn p50_p95(sample: &mut [f64]) -> (f64, f64) {
    sample.sort_by(f64::total_cmp);
    (percentile(sample, 0.50), percentile(sample, 0.95))
}

/// Mean of the samples between the `lo` and `hi` quantiles of an ascending
/// slice (at least one sample; `0.0` for an empty slice). An order
/// statistic's smooth cousin: obstructed-distance latencies come in steps of
/// some 80 ms, and a median or p95 that sits between two steps jumps by a
/// whole step from seed to seed, while the mean over a band moves by the
/// share of samples that changed step.
pub fn band_mean(sorted: &[f64], lo: f64, hi: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let from = ((lo * n).floor() as usize).min(sorted.len() - 1);
    let to = ((hi * n).ceil() as usize).clamp(from + 1, sorted.len());
    mean(&sorted[from..to])
}

/// Sorts a sample in place and returns the mean of its middle third (p33 to
/// p67): the `fam*_mid_ms` rows' "typical latency". It follows the median,
/// without the median's jumps when latencies come in steps; the wider
/// interquartile mean reaches into the slow mode of the live writes, a
/// quarter to a third of which patch a standing answer at 20 times the cost.
pub fn mid(sample: &mut [f64]) -> f64 {
    sample.sort_by(f64::total_cmp);
    band_mean(sample, 1.0 / 3.0, 2.0 / 3.0)
}

/// Sorts a sample in place and returns the mean of the slowest tenth without
/// the slowest hundredth (p90 to p99): `tail_ms`, a p95 that moves smoothly
/// and that one straggler cannot set.
pub fn tail(sample: &mut [f64]) -> f64 {
    sample.sort_by(f64::total_cmp);
    band_mean(sample, 0.90, 0.99)
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// FNV-1a over 64-bit words: the workload-drift digest of every generated
/// input (coordinates enter by bit pattern, so any generator change shows).
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn f64s(&mut self, xs: &[f64]) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number with all its digits (`0` for a non-finite value, which JSON
/// cannot carry).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Parses the flat one-pair-per-line JSON object `golden.json` is kept in:
/// `"key": value` lines, values kept as raw text (quotes stripped).
pub fn parse_flat_json(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let (key, value) = line.split_once("\": ")?;
            Some((
                key.trim_start_matches('"').to_string(),
                value.trim_matches('"').to_string(),
            ))
        })
        .collect()
}

pub fn write_flat_json(map: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
        .collect();
    format!("{{\n{}\n}}\n", body.join(",\n"))
}

/// Pulls `"name": {"value": X` pairs out of a result line — all the parent
/// process of `--aa` needs from its children.
pub fn parse_metric_values(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let needle = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(needle) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = &rest[name_start..at];
        let tail = &rest[at + needle.len()..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        if let Ok(v) = tail[..end].trim().parse::<f64>() {
            out.insert(name.to_string(), v);
        }
        rest = &tail[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_the_nearest_rank_order_statistic() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn band_means_cover_the_right_order_statistics() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(band_mean(&xs, 0.25, 0.75), 50.5, "samples 26..=75");
        assert_eq!(mid(&mut xs.clone()), 50.5, "samples 34..=67");
        assert_eq!(band_mean(&xs, 0.90, 0.99), 95.0, "samples 91..=99");
        assert_eq!(band_mean(&xs, 0.0, 1.0), 50.5);
        assert_eq!(band_mean(&[7.0], 0.90, 0.99), 7.0);
        assert_eq!(band_mean(&[1.0, 2.0, 3.0], 0.90, 0.99), 3.0);
        assert_eq!(band_mean(&[], 0.25, 0.75), 0.0);
        let mut steps = vec![
            320.0, 230.0, 230.0, 410.0, 320.0, 230.0, 410.0, 320.0, 230.0,
        ];
        assert_eq!(mid(&mut steps), 290.0, "the middle three: 230, 320, 320");
        // one straggler among 200 samples is above p99 and does not count
        let mut lat: Vec<f64> = (0..200).map(|i| if i == 7 { 9e9 } else { 1.0 }).collect();
        assert_eq!(tail(&mut lat), 1.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let f = a.next_f64();
            b.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_ne!(sub_seed(2009, 1), sub_seed(2009, 2));
        assert_ne!(sub_seed(2009, 1), sub_seed(2010, 1));
    }

    #[test]
    fn flat_json_round_trips_and_metric_values_parse() {
        let mut m = BTreeMap::new();
        m.insert(
            "continuous@2009.input_digest".to_string(),
            "00ff".to_string(),
        );
        m.insert(
            "continuous@2009.answers.conn.sum".to_string(),
            "12.5".to_string(),
        );
        assert_eq!(parse_flat_json(&write_flat_json(&m)), m);
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"p50_ms": {"value": 1.25, "unit": "ms"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let v = parse_metric_values(line);
        assert_eq!(v.len(), 2);
        assert_eq!(v["p50_ms"], 1.25);
        assert_eq!(v["setup_s"], 0.5);
    }

    #[test]
    fn digest_depends_on_every_word() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64s(&[1.0, 2.0]);
        b.f64s(&[1.0, 2.0000000000000004]);
        assert_ne!(a.hex(), b.hex());
    }
}
