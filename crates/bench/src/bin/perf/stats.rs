//! Small numeric and reporting helpers: percentiles, the result-line
//! JSON emitter, and what the machine says about itself.

use std::time::Duration;

/// Percentile `p` in `[0, 1]` of an unsorted sample, linearly
/// interpolated between closest ranks; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ns_to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// `a / b`, 0 when `b` is 0 (a ratio of two empty counts).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Largest value over the mean (1 = perfectly even); 0 for no values.
pub fn max_over_mean(values: &[f64]) -> f64 {
    ratio(
        values.iter().copied().fold(0.0, f64::max),
        values.iter().sum::<f64>() / values.len().max(1) as f64,
    )
}

/// The driver's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Read one metric's value back out of a [`result_json`] line.
pub fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Read a top-level scalar (`correct`, `attempted`, `failed`) back out.
pub fn field_in<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    Some(&rest[..rest.find(',')?])
}

/// High-water resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The validity header: everything a reader needs to decide whether two
/// results are comparable.
pub fn machine_header() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "nproc {} | cpu {cpu} | {} | commit {}",
        nproc(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_json(
            true,
            120,
            0,
            &[("unit_ms_p50", 12.5, "ms"), ("setup_s", 0.75, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 120, \"failed\": 0, \"metrics\": \
             {\"unit_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}}"
        );
        assert_eq!(metric_in(&line, "setup_s"), Some(0.75));
        assert_eq!(metric_in(&line, "unit_ms_p50"), Some(12.5));
        assert_eq!(metric_in(&line, "missing"), None);
        assert_eq!(field_in(&line, "correct"), Some("true"));
        assert_eq!(field_in(&line, "failed"), Some("0"));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn result_line_rejects_nan() {
        result_json(true, 1, 0, &[("x", f64::NAN, "ms")]);
    }
}
