//! Shared harness utilities for the experiment binaries and Criterion
//! benches that regenerate every table and figure of the paper.
//!
//! Binaries (run with `cargo run --release -p bcast-bench --bin <name>`):
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table 1 — pruning effects on full balanced m-ary trees |
//! | `fig14` | Fig. 14 — Sorting heuristic vs Optimal under `N(100, σ)` |
//! | `paper_walkthrough` | the §1–§3 worked examples (Figs. 1, 2, 13) |
//! | `channel_sweep` | extension: data wait vs channel count, all methods |
//! | `tuning_time` | extension: simulator access/tuning time per tree shape |
//! | `adaptive_drift` | extension: the adaptive tenant under demand drift ([`drift`]) |
//!
//! Criterion benches live in `benches/` and cover search-strategy cost
//! (A1), bound tightness (A2), heuristic scalability (A3) and the client
//! simulator (A4).

use std::fmt::Write as _;

pub mod drift;

/// Renders an aligned text table (markdown-ish, fixed-width columns).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut width = vec![0usize; cols];
    for (i, h) in headers.iter().enumerate() {
        width[i] = h.len();
    }
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (i, cell) in row.iter().enumerate() {
            width[i] = width[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let mut first = true;
        for (i, c) in cells.iter().enumerate() {
            if !first {
                out.push_str("  ");
            }
            let _ = write!(out, "{c:>w$}", w = width[i]);
            first = false;
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = width.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// Exact factorial as `u128` (panics past 34!, plenty for our tables).
pub fn factorial_u128(n: u64) -> u128 {
    (1..=n as u128).product()
}

/// Factorial as `f64` for magnitudes beyond `u128`.
pub fn factorial_f64(n: u64) -> f64 {
    (1..=n).map(|x| x as f64).product()
}

/// `(m²)! / (m!)^m` — the paper's closed form for the number of data-tree
/// paths under Property 2 on a full balanced m-ary tree of depth 3.
pub fn property2_closed_form(m: u64) -> f64 {
    factorial_f64(m * m) / factorial_f64(m).powi(m as i32)
}

/// Mean and sample standard deviation.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "mean of empty slice");
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() == 1 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

/// Formats a large count compactly (`1366361`, `6.23e14`, `>cap`).
pub fn fmt_count(c: Option<u128>, approx: Option<f64>) -> String {
    match (c, approx) {
        (Some(c), _) if c < 10_000_000 => c.to_string(),
        (Some(c), _) => format!("{:.3e}", c as f64),
        (None, Some(a)) => format!("{a:.2e}"),
        (None, None) => "N/A".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns() {
        let t = render_table(
            &["m", "paths"],
            &[
                vec!["2".into(), "6".into()],
                vec!["10".into(), "123456".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].ends_with("paths"));
        assert!(lines[3].ends_with("123456"));
    }

    #[test]
    fn closed_form_matches_paper_small_m() {
        assert_eq!(property2_closed_form(2), 6.0);
        assert_eq!(property2_closed_form(3), 1680.0);
        // Paper prints 6306300 for m = 4 — a dropped digit; the true value:
        assert_eq!(property2_closed_form(4), 63_063_000.0);
        // m = 5 ≈ 6.2e14 per the paper.
        let m5 = property2_closed_form(5);
        assert!((6.1e14..6.4e14).contains(&m5), "{m5}");
    }

    #[test]
    fn factorials() {
        assert_eq!(factorial_u128(0), 1);
        assert_eq!(factorial_u128(9), 362880);
        assert_eq!(factorial_f64(9), 362880.0);
    }

    #[test]
    fn stats() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.138089935299395).abs() < 1e-12);
        assert_eq!(mean_std(&[3.0]).1, 0.0);
    }

    #[test]
    fn count_formatting() {
        assert_eq!(fmt_count(Some(42), None), "42");
        assert_eq!(fmt_count(None, Some(6.23e14)), "6.23e14");
        assert_eq!(fmt_count(None, None), "N/A");
    }
}
