//! Text-table and JSON reporting for experiment results.

use crate::experiments::{ExamplesResult, Fig3Result, Fig4Result, Table1Result};
use std::fmt::Write as _;

/// Render a Figure 4 panel the way the paper plots it: normalized TET and
/// ART per scheduler (S³ = 1.00), with absolute seconds alongside.
pub fn fig4_table(r: &Fig4Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} ==", r.label);
    let _ = writeln!(
        out,
        "{:<8} {:>10} {:>10} {:>9} {:>9} {:>12} {:>12}",
        "scheme", "TET(s)", "ART(s)", "TET/S3", "ART/S3", "blocks_read", "MB_saved"
    );
    for (row, (name, tet_n, art_n)) in r.results.iter().zip(r.normalized()) {
        let _ = writeln!(
            out,
            "{:<8} {:>10.1} {:>10.1} {:>9.2} {:>9.2} {:>12} {:>12.0}",
            name, row.tet_s, row.art_s, tet_n, art_n, row.blocks_read, row.mb_saved
        );
    }
    out
}

/// Render Figure 3: absolute times and ratios against a single job.
pub fn fig3_table(r: &Fig3Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Fig3: cost of combined jobs (co-submitted, fully shared) ==");
    let _ = writeln!(
        out,
        "{:>3} {:>10} {:>10} {:>12} {:>8} {:>8} {:>8}",
        "n", "TET(s)", "map(s)", "reduce(s)", "TET/1", "map/1", "red/1"
    );
    for p in &r.points {
        let (t, m, d) = r.overhead_at(p.n);
        let _ = writeln!(
            out,
            "{:>3} {:>10.1} {:>10.2} {:>12.2} {:>8.3} {:>8.3} {:>8.3}",
            p.n, p.tet_s, p.avg_map_s, p.avg_reduce_s, t, m, d
        );
    }
    out
}

/// Render Table I next to the paper's reported values.
pub fn table1_table(r: &Table1Result) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table I: wordcount details (normal workload) ==");
    let _ = writeln!(out, "{:<28} {:>16} {:>20}", "quantity", "measured", "paper");
    let rows: [(&str, String, &str); 6] = [
        (
            "Input size",
            format!("{:.0} GB", r.input_mb / 1024.0),
            "160 GB",
        ),
        (
            "Map output records",
            format!("{:.1} M", r.map_output_records / 1e6),
            "~250 M",
        ),
        (
            "Reduce output records",
            format!("{:.0} k", r.reduce_output_records / 1e3),
            "~60-80 k",
        ),
        (
            "Map output size",
            format!("{:.2} GB", r.map_output_mb / 1024.0),
            "~2.4 GB",
        ),
        (
            "Reduce output size",
            format!("{:.2} MB", r.reduce_output_mb),
            "~1.5 MB",
        ),
        (
            "Processing time (avg)",
            format!("{:.0} s", r.processing_time_s),
            "~240 s",
        ),
    ];
    for (name, measured, paper) in rows {
        let _ = writeln!(out, "{:<28} {:>16} {:>20}", name, measured, paper);
    }
    out
}

/// Render the Section III worked examples.
pub fn examples_table(r: &ExamplesResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Section III Examples 1-3 (closed form) ==");
    let _ = writeln!(
        out,
        "{:<28} {:<9} {:>8} {:>8}",
        "scenario", "scheme", "TET(s)", "ART(s)"
    );
    for (scenario, scheme, tet, art) in &r.rows {
        let _ = writeln!(out, "{:<28} {:<9} {:>8.0} {:>8.0}", scenario, scheme, tet, art);
    }
    out
}

/// Figure 3 as CSV (`n,tet_s,avg_map_s,avg_reduce_s,tet_ratio,map_ratio,reduce_ratio`).
pub fn fig3_csv(r: &Fig3Result) -> String {
    let mut out = String::from("n,tet_s,avg_map_s,avg_reduce_s,tet_ratio,map_ratio,reduce_ratio\n");
    for p in &r.points {
        let (t, m, d) = r.overhead_at(p.n);
        let _ = writeln!(
            out,
            "{},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4}",
            p.n, p.tet_s, p.avg_map_s, p.avg_reduce_s, t, m, d
        );
    }
    out
}

/// A Figure 4 panel as CSV
/// (`scheme,tet_s,art_s,tet_norm,art_norm,blocks_read,mb_saved`).
pub fn fig4_csv(r: &Fig4Result) -> String {
    let mut out = String::from("scheme,tet_s,art_s,tet_norm,art_norm,blocks_read,mb_saved\n");
    for (row, (name, tet_n, art_n)) in r.results.iter().zip(r.normalized()) {
        let _ = writeln!(
            out,
            "{},{:.3},{:.3},{:.4},{:.4},{},{:.1}",
            name, row.tet_s, row.art_s, tet_n, art_n, row.blocks_read, row.mb_saved
        );
    }
    out
}

/// Render a Figure 4 panel as a grouped-bar SVG, normalized to S³ = 1.0 —
/// the visual form the paper plots. Pure string generation, no deps.
pub fn fig4_svg(r: &Fig4Result) -> String {
    let rows = r.normalized();
    let n = rows.len();
    let (w, h) = (640.0_f64, 360.0_f64);
    let (ml, mr, mt, mb) = (50.0, 10.0, 40.0, 50.0);
    let plot_w = w - ml - mr;
    let plot_h = h - mt - mb;
    let max_y = rows
        .iter()
        .flat_map(|(_, t, a)| [*t, *a])
        .fold(1.0_f64, f64::max)
        * 1.15;
    let y_of = |v: f64| mt + plot_h * (1.0 - v / max_y);
    let group_w = plot_w / n as f64;
    let bar_w = group_w * 0.32;

    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" font-family="sans-serif" font-size="12">"#
    );
    let _ = writeln!(
        s,
        r#"<text x="{ml}" y="20" font-size="14">{}</text>"#,
        r.label.replace('&', "&amp;").replace('<', "&lt;")
    );
    let _ = writeln!(
        s,
        r##"<text x="{}" y="20" fill="#4878a8">&#9632; TET/S3</text><text x="{}" y="20" fill="#d8841f">&#9632; ART/S3</text>"##,
        w - 220.0,
        w - 130.0
    );
    // Gridlines at 0.5 intervals.
    let mut grid = 0.0;
    while grid <= max_y {
        let y = y_of(grid);
        let _ = writeln!(
            s,
            r##"<line x1="{ml}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#eee"/><text x="8" y="{:.1}" fill="#555">{grid:.1}</text>"##,
            w - mr,
            y + 4.0
        );
        grid += 0.5;
    }
    // Reference line at 1.0 (S3).
    let y1 = y_of(1.0);
    let _ = writeln!(
        s,
        r##"<line x1="{ml}" y1="{y1:.1}" x2="{:.1}" y2="{y1:.1}" stroke="#888" stroke-dasharray="4 3"/>"##,
        w - mr
    );
    for (i, (name, tet, art)) in rows.iter().enumerate() {
        let x0 = ml + i as f64 * group_w + group_w * 0.15;
        for (j, (v, color)) in [(tet, "#4878a8"), (art, "#d8841f")].iter().enumerate() {
            let x = x0 + j as f64 * bar_w;
            let y = y_of(**v);
            let _ = writeln!(
                s,
                r##"<rect x="{x:.1}" y="{y:.1}" width="{bar_w:.1}" height="{:.1}" fill="{color}"/>"##,
                mt + plot_h - y
            );
            let _ = writeln!(
                s,
                r##"<text x="{:.1}" y="{:.1}" text-anchor="middle" fill="#333" font-size="10">{:.2}</text>"##,
                x + bar_w / 2.0,
                y - 3.0,
                v
            );
        }
        let _ = writeln!(
            s,
            r##"<text x="{:.1}" y="{:.1}" text-anchor="middle">{name}</text>"##,
            x0 + bar_w,
            h - mb + 18.0
        );
    }
    s.push_str("</svg>\n");
    s
}

/// Render every ablation as one combined report.
pub fn ablations_report(seed: u64) -> String {
    use crate::ablations;
    let mut out = String::new();

    let _ = writeln!(out, "== Ablation: sub-job granularity (waves per segment; sparse workload) ==");
    let _ = writeln!(out, "{:>6} {:>10} {:>10}", "waves", "TET(s)", "ART(s)");
    for p in ablations::segment_size_sweep(seed) {
        let _ = writeln!(out, "{:>6.0} {:>10.1} {:>10.1}", p.x, p.tet_s, p.art_s);
    }

    let _ = writeln!(out, "\n== Ablation: arrival-rate sweep (10 Poisson jobs; S3 vs single-batch MRShare) ==");
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>10} {:>11} {:>11}",
        "gap(s)", "S3 TET", "S3 ART", "MRS1 TET", "MRS1 ART"
    );
    for p in ablations::arrival_rate_sweep(seed) {
        let _ = writeln!(
            out,
            "{:>10.0} {:>10.1} {:>10.1} {:>11.1} {:>11.1}",
            p.mean_gap_s, p.s3.tet_s, p.s3.art_s, p.mrs1.tet_s, p.mrs1.art_s
        );
    }

    let _ = writeln!(out, "\n== Ablation: MRShare batch count (sparse workload) ==");
    let _ = writeln!(out, "{:>8} {:>10} {:>10}", "batches", "TET(s)", "ART(s)");
    for p in ablations::mrshare_batch_sweep(seed) {
        let _ = writeln!(out, "{:>8.0} {:>10.1} {:>10.1}", p.x, p.tet_s, p.art_s);
    }

    let _ = writeln!(out, "\n== Ablation: periodic slot checking under stragglers ==");
    let (off, on) = ablations::slot_checking_ablation(seed);
    let _ = writeln!(out, "{:<22} {:>10} {:>10}", "config", "TET(s)", "ART(s)");
    let _ = writeln!(out, "{:<22} {:>10.1} {:>10.1}", "slot checking OFF", off.tet_s, off.art_s);
    let _ = writeln!(out, "{:<22} {:>10.1} {:>10.1}", "slot checking ON", on.tet_s, on.art_s);

    let _ = writeln!(out, "\n== Extension: partial-utilization schedulers (Section II-B) ==");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>12}",
        "scheme", "TET(s)", "ART(s)", "blocks_read"
    );
    for p in ablations::partial_utilization_comparison(seed) {
        let _ = writeln!(
            out,
            "{:<10} {:>10.1} {:>10.1} {:>12}",
            p.name, p.tet_s, p.art_s, p.blocks_read
        );
    }

    let _ = writeln!(out, "\n== Ablation: block placement & replication (S3, two jobs) ==");
    let _ = writeln!(out, "{:<18} {:>10} {:>10}", "placement", "locality", "TET(s)");
    for p in ablations::placement_ablation(seed) {
        let _ = writeln!(
            out,
            "{:<18} {:>9.1}% {:>10.1}",
            p.name,
            100.0 * p.locality_rate,
            p.tet_s
        );
    }

    let _ = writeln!(out, "\n== Ablation: heartbeat interval (dense pattern, S3 vs MRS1) ==");
    let _ = writeln!(out, "{:>8} {:>10} {:>11}", "hb(s)", "S3 TET", "MRS1 TET");
    for p in ablations::heartbeat_sweep(seed) {
        let _ = writeln!(
            out,
            "{:>8.1} {:>10.1} {:>11.1}",
            p.heartbeat_s, p.s3_tet_s, p.mrs1_tet_s
        );
    }

    let _ = writeln!(out, "\n== Extension: speculative execution vs slot checking (stragglers) ==");
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>9} {:>7} {:>8}",
        "config", "TET(s)", "backups", "wins", "wasted"
    );
    for r in ablations::speculation_ablation(seed) {
        let _ = writeln!(
            out,
            "{:<12} {:>10.1} {:>9} {:>7} {:>8}",
            r.name, r.tet_s, r.attempts, r.wins, r.wasted
        );
    }

    let _ = writeln!(out, "\n== Extension: priority-aware S3 (future work) ==");
    let (baseline, prioritized) = ablations::priority_ablation(seed);
    let _ = writeln!(
        out,
        "high-priority job response: baseline S3 {baseline:.1}s, priority-aware {prioritized:.1}s ({:.1}% faster)",
        100.0 * (baseline - prioritized) / baseline
    );

    out
}

/// Merge `update` into the shared engine report held in `existing`:
/// each top-level key of `update` replaces (or joins) the report's key of
/// that name, and every other key — a section another writer owns —
/// survives. A missing, unparsable or non-object report starts from an
/// empty `s3bench-engine/v1` one.
pub fn merge_report(existing: Option<&str>, update: serde_json::Value) -> serde_json::Value {
    let mut report = existing
        .and_then(|t| serde_json::from_str::<serde_json::Value>(t).ok())
        .filter(|v| matches!(v, serde_json::Value::Object(_)))
        .unwrap_or_else(|| serde_json::json!({"schema": "s3bench-engine/v1"}));
    if let serde_json::Value::Object(entries) = update {
        for (key, value) in entries {
            report[key.as_str()] = value;
        }
    }
    report
}

/// Read-modify-write the report file at `path` with [`merge_report`],
/// creating its directory if needed. Writers that own different sections
/// of one `BENCH_engine.json` use this so none drops another's keys.
pub fn merge_report_file(path: &str, update: serde_json::Value) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).ok();
    let report = merge_report(existing.as_deref(), update);
    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    if let Some(dir) = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_report_keeps_foreign_sections() {
        let existing = r#"{"schema": "s3bench-engine/v1", "current": {"old": 1}, "slo": {"p99": 7}, "service": {"rejected": 3}}"#;
        let update = serde_json::json!({"schema": "s3bench-engine/v1", "current": {"new": 2}, "skew": {"shards": 4}});
        let merged = merge_report(Some(existing), update);
        assert_eq!(merged["slo"]["p99"].as_u64(), Some(7), "foreign slo section survives");
        assert_eq!(merged["service"]["rejected"].as_u64(), Some(3), "foreign service section survives");
        assert_eq!(merged["current"]["new"].as_u64(), Some(2), "owned key is replaced");
        assert!(merged["current"].get("old").is_none(), "owned key is replaced, not merged");
        assert_eq!(merged["skew"]["shards"].as_u64(), Some(4), "new key joins");
        assert_eq!(merged["schema"].as_str(), Some("s3bench-engine/v1"));
    }

    #[test]
    fn merge_report_starts_fresh_from_missing_or_garbage() {
        for existing in [None, Some("not json"), Some("[1, 2]")] {
            let merged = merge_report(existing, serde_json::json!({"slo": {"p99": 1}}));
            assert_eq!(merged["schema"].as_str(), Some("s3bench-engine/v1"));
            assert_eq!(merged["slo"]["p99"].as_u64(), Some(1));
        }
    }
    use crate::experiments::{run_examples, SchedulerResult};

    #[test]
    fn fig4_table_renders_all_rows() {
        let r = Fig4Result {
            label: "test".into(),
            results: vec![
                SchedulerResult {
                    name: "S3".into(),
                    tet_s: 100.0,
                    art_s: 50.0,
                    blocks_read: 10,
                    mb_saved: 640.0,
                },
                SchedulerResult {
                    name: "FIFO".into(),
                    tet_s: 220.0,
                    art_s: 125.0,
                    blocks_read: 20,
                    mb_saved: 0.0,
                },
            ],
        };
        let t = fig4_table(&r);
        assert!(t.contains("S3"));
        assert!(t.contains("FIFO"));
        assert!(t.contains("2.20"));
        assert!(t.contains("2.50"));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = Fig4Result {
            label: "t".into(),
            results: vec![SchedulerResult {
                name: "S3".into(),
                tet_s: 100.0,
                art_s: 50.0,
                blocks_read: 10,
                mb_saved: 640.0,
            }],
        };
        let csv = fig4_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("scheme,"));
        assert!(lines[1].starts_with("S3,100.000,50.000,1.0000,1.0000,10,640.0"));
    }

    #[test]
    fn fig4_svg_is_well_formed() {
        let r = Fig4Result {
            label: "panel".into(),
            results: vec![
                SchedulerResult {
                    name: "S3".into(),
                    tet_s: 100.0,
                    art_s: 50.0,
                    blocks_read: 1,
                    mb_saved: 0.0,
                },
                SchedulerResult {
                    name: "FIFO".into(),
                    tet_s: 220.0,
                    art_s: 125.0,
                    blocks_read: 2,
                    mb_saved: 0.0,
                },
            ],
        };
        let svg = fig4_svg(&r);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 4, "two bars per scheme");
        assert!(svg.contains("2.20") && svg.contains("2.50"), "bar labels");
        assert!(svg.contains("FIFO"));
    }

    #[test]
    fn examples_table_contains_paper_numbers() {
        let t = examples_table(&run_examples());
        // Example 1 FIFO row: TET 200, ART 140.
        assert!(t.contains("200"));
        assert!(t.contains("140"));
    }
}
