//! Machine-readable result export.
//!
//! Figures can be exported as CSV (see [`crate::report::FigureData::to_csv`])
//! or as JSON via [`figure_to_json`] for downstream plotting. The JSON
//! encoder is a ~60-line hand-rolled writer so the simulator keeps its
//! dependency-free core (no serde format crate needed for this fixed,
//! shallow schema).

use crate::report::FigureData;
use simcore::telemetry::esc;
use std::fmt::Write as _;

/// Format an f64 as JSON (finite → shortest float, non-finite → null).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{}", v)
    } else {
        "null".to_string()
    }
}

/// Serialize one figure to a JSON object:
///
/// ```json
/// { "id": "...", "title": "...", "xlabel": "...", "ylabel": "...",
///   "series": [ { "name": "...",
///                 "points": [ {"x":…, "median":…, "d1":…, "d9":…,
///                              "min":…, "max":…, "n":…} ] } ],
///   "notes": [...],
///   "checks": [ {"name": "...", "pass": true, "detail": "..."} ],
///   "runs": [ {"rep":…, "seed":…, "status":"ok|recovered|failed|timeout",
///              "error":null, "retries":…, "retrans_bytes":…,
///              "retry_wait_s":…} ] }
/// ```
pub fn figure_to_json(fig: &FigureData) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":\"{}\",\"title\":\"{}\",\"xlabel\":\"{}\",\"ylabel\":\"{}\",\"series\":[",
        esc(fig.id),
        esc(&fig.title),
        esc(fig.xlabel),
        esc(fig.ylabel)
    );
    for (si, s) in fig.series.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"points\":[", esc(&s.name));
        for (pi, p) in s.points.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"x\":{},\"median\":{},\"d1\":{},\"d9\":{},\"min\":{},\"max\":{},\"n\":{}}}",
                num(p.x),
                num(p.y.median),
                num(p.y.d1),
                num(p.y.d9),
                num(p.y.min),
                num(p.y.max),
                p.y.n
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"notes\":[");
    for (ni, n) in fig.notes.iter().enumerate() {
        if ni > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", esc(n));
    }
    out.push_str("],\"checks\":[");
    for (ci, c) in fig.checks.iter().enumerate() {
        if ci > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"pass\":{},\"detail\":\"{}\"}}",
            esc(&c.name),
            c.pass,
            esc(&c.detail)
        );
    }
    out.push_str("],\"runs\":[");
    for (ri, r) in fig.runs.iter().enumerate() {
        if ri > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rep\":{},\"seed\":{},\"status\":\"{}\",\"error\":{},\
             \"retries\":{},\"retrans_bytes\":{},\"retry_wait_s\":{}}}",
            r.rep,
            r.seed,
            esc(r.status),
            match &r.error {
                Some(e) => format!("\"{}\"", esc(e)),
                None => "null".to_string(),
            },
            r.retries,
            r.retrans_bytes,
            num(r.retry_wait_s)
        );
    }
    out.push_str("]}");
    out
}

/// Serialize a set of figures to a JSON array.
pub fn figures_to_json(figs: &[FigureData]) -> String {
    let mut out = String::from("[");
    for (i, f) in figs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&figure_to_json(f));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Check;
    use simcore::Series;

    fn fig() -> FigureData {
        let mut s = Series::new("lat \"q\"");
        s.push(1.0, &[2.0, 3.0]);
        FigureData {
            id: "figT",
            title: "t\nx".into(),
            xlabel: "cores",
            ylabel: "us",
            series: vec![s],
            notes: vec!["a \"note\"".into()],
            checks: vec![Check::new("c", true, "d\\e")],
            runs: vec![crate::report::RunOutcome {
                rep: 0,
                seed: 0xABCD,
                status: "recovered",
                error: Some("transfer \"x\" failed".into()),
                retries: 3,
                retrans_bytes: 192,
                retry_wait_s: 1.5e-6,
            }],
        }
    }

    #[test]
    fn json_structure() {
        let j = figure_to_json(&fig());
        assert!(j.starts_with("{\"id\":\"figT\""));
        assert!(j.contains("\"series\":[{\"name\":\"lat \\\"q\\\"\""));
        assert!(j.contains("\"pass\":true"));
        assert!(j.contains("\"x\":1"));
        assert!(j.contains("\"runs\":[{\"rep\":0,\"seed\":43981,\"status\":\"recovered\""));
        assert!(j.contains("\"retries\":3"));
        assert!(j.contains("transfer \\\"x\\\" failed"));
        // Balanced braces/brackets.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(1.5), "1.5");
    }

    #[test]
    fn array_form() {
        let j = figures_to_json(&[fig(), fig()]);
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert_eq!(j.matches("\"id\":\"figT\"").count(), 2);
    }
}
