//! Compare mode: two sets of saved runs (`--save <dir>`), side by side.
//!
//! For every workload and end-to-end metric it prints both medians, both
//! interquartile ranges as a share of their median, the change in the
//! metric's worse direction, and the verdict against the bound
//! `BENCHMARK.json` fixes: `WORSE` when the second median is worse than
//! the first by more than the bound, `NOISY` when either set's spread
//! exceeds it, `ok` otherwise.

use crate::stats;
use edgellm_trace::{parse_json, Histogram, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Bound {
    bound: f64,
    lower_is_better: bool,
}

fn bounds() -> Result<Vec<(String, Bound)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse_json(&src)?;
    let list = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            let better = m.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            Ok((name.to_string(), Bound { bound, lower_is_better: better == "lower" }))
        })
        .collect()
}

/// Values by `(workload, metric)`, plus the reference-loop rates seen.
#[derive(Default)]
struct RunSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    ref_rates: BTreeMap<String, Vec<f64>>,
}

fn load(dir: &str) -> Result<RunSet, String> {
    let mut set = RunSet::default();
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    for path in files {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
        let doc = parse_json(&src).map_err(|e| format!("{path:?}: {e}"))?;
        if doc.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::as_str).unwrap_or("?").to_string();
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or(format!("{path:?}: no result metrics"))?;
        for (name, v) in metrics {
            if let Some(x) = v.get("value").and_then(Json::as_f64) {
                set.values.entry((workload.clone(), name.clone())).or_default().push(x);
            }
        }
        if let Some(h) = doc.get("host") {
            for k in ["ref_loop_mfma_per_s_before", "ref_loop_mfma_per_s_after"] {
                if let Some(x) = h.get(k).and_then(Json::as_f64) {
                    set.ref_rates.entry(workload.clone()).or_default().push(x);
                }
            }
        }
    }
    Ok(set)
}

/// One row's verdict.
fn verdict(b: &Bound, a: &[f64], bv: &[f64]) -> (f64, &'static str) {
    let (ma, mb) = (stats::median(a), stats::median(bv));
    let worse = if b.lower_is_better { (mb - ma) / ma } else { (ma - mb) / ma };
    let noisy = stats::spread(a) > b.bound || stats::spread(bv) > b.bound;
    let v = if worse > b.bound {
        "WORSE"
    } else if noisy {
        "NOISY"
    } else {
        "ok"
    };
    (worse, v)
}

/// `perfbench compare <dir-a> <dir-b>`; exit 0 when every row is `ok`.
pub fn main(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        eprintln!("usage: perfbench compare <dir-a> <dir-b>");
        return ExitCode::from(2);
    };
    let (bounds, sa, sb) = match (bounds(), load(a), load(b)) {
        (Ok(x), Ok(y), Ok(z)) => (x, y, z),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<15} {:<14} {:>3} {:>13} {:>7} {:>3} {:>13} {:>7} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median A", "IQR A", "n", "median B", "IQR B", "change", "bound"
    );
    let mut all_ok = true;
    let workloads: Vec<&String> = {
        let mut w: Vec<&String> = sa.values.keys().map(|(w, _)| w).collect();
        w.dedup();
        w
    };
    for w in workloads {
        for (name, bound) in &bounds {
            let key = (w.clone(), name.clone());
            let (Some(va), Some(vb)) = (sa.values.get(&key), sb.values.get(&key)) else {
                println!("{w:<15} {name:<14} missing from one set");
                all_ok = false;
                continue;
            };
            let (worse, v) = verdict(bound, va, vb);
            all_ok &= v == "ok";
            println!(
                "{w:<15} {name:<14} {:>3} {:>13.6} {:>6.2}% {:>3} {:>13.6} {:>6.2}% {:>+7.2}% {:>5.0}%  {v}",
                va.len(),
                stats::median(va),
                stats::spread(va) * 100.0,
                vb.len(),
                stats::median(vb),
                stats::spread(vb) * 100.0,
                worse * 100.0,
                bound.bound * 100.0
            );
        }
    }
    println!("reference loop (M FMA/s, before and after each run): min / median / max");
    for (label, set) in [("A", &sa), ("B", &sb)] {
        for (w, r) in &set.ref_rates {
            let h = Histogram::from_samples(r.iter().copied());
            println!(
                "  {label} {w:<15} {:>8.1} {:>8.1} {:>8.1}",
                h.min(),
                h.median_interpolated(),
                h.max()
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_direction() {
        let lower = Bound { bound: 0.1, lower_is_better: true };
        let higher = Bound { bound: 0.1, lower_is_better: false };
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&lower, &base, &base).1, "ok");
        assert_eq!(verdict(&lower, &base, &slower).1, "WORSE");
        assert_eq!(verdict(&higher, &base, &slower).1, "ok");
        let noisy = [5.0, 10.0, 15.0, 10.0, 8.0];
        assert_eq!(verdict(&lower, &base, &noisy).1, "NOISY");
    }
}
