//! Experiment reporting: aligned text tables, shape checks, CSV emission.

use std::fmt::Write as _;

use edgellm_trace::chrome::json_str;

/// A pass/fail shape check against a paper claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What is being checked (quotes or paraphrases the paper claim).
    pub claim: String,
    /// Whether our reproduction satisfies it.
    pub pass: bool,
    /// Observed values supporting the verdict.
    pub detail: String,
}

impl Check {
    /// Build a check.
    pub fn new(claim: impl Into<String>, pass: bool, detail: impl Into<String>) -> Self {
        Check { claim: claim.into(), pass, detail: detail.into() }
    }
}

/// The output of one experiment driver.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Short id (e.g. "fig1", "tab3").
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Rendered comparison tables.
    pub tables: Vec<String>,
    /// Shape checks against the paper.
    pub checks: Vec<Check>,
    /// CSV blocks: (file stem, contents).
    pub csv: Vec<(String, String)>,
}

impl ExperimentResult {
    /// Whether every shape check passed.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// Render the full report to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for t in &self.tables {
            let _ = writeln!(out, "\n{t}");
        }
        if !self.checks.is_empty() {
            let _ = writeln!(out, "\nShape checks vs paper:");
            for c in &self.checks {
                let mark = if c.pass { "PASS" } else { "FAIL" };
                let _ = writeln!(out, "  [{mark}] {} — {}", c.claim, c.detail);
            }
        }
        out
    }

    /// Serialize the result (id, title, checks, CSV blocks) to JSON for
    /// machine-readable diffing against the paper ground truth.
    ///
    /// Hand-rolled pretty printer (2-space indent, `serde_json` layout)
    /// because the offline build carries no serialization dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"id\": {},", json_str(self.id));
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let _ = writeln!(out, "  \"all_pass\": {},", self.all_pass());
        if self.checks.is_empty() {
            out.push_str("  \"checks\": [],\n");
        } else {
            out.push_str("  \"checks\": [\n");
            for (i, c) in self.checks.iter().enumerate() {
                out.push_str("    {\n");
                let _ = writeln!(out, "      \"claim\": {},", json_str(&c.claim));
                let _ = writeln!(out, "      \"pass\": {},", c.pass);
                let _ = writeln!(out, "      \"detail\": {}", json_str(&c.detail));
                out.push_str(if i + 1 < self.checks.len() { "    },\n" } else { "    }\n" });
            }
            out.push_str("  ],\n");
        }
        if self.csv.is_empty() {
            out.push_str("  \"csv\": []\n");
        } else {
            out.push_str("  \"csv\": [\n");
            for (i, (stem, contents)) in self.csv.iter().enumerate() {
                let _ = write!(out, "    [{}, {}]", json_str(stem), json_str(contents));
                out.push_str(if i + 1 < self.csv.len() { ",\n" } else { "\n" });
            }
            out.push_str("  ]\n");
        }
        out.push('}');
        out
    }

    /// Write the JSON export into `dir` (created if needed).
    pub fn write_json(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let p = dir.join(format!("{}.json", self.id));
        std::fs::write(&p, self.to_json())?;
        Ok(p)
    }

    /// Write the CSV blocks into `dir` (created if needed).
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::new();
        for (stem, contents) in &self.csv {
            let p = dir.join(format!("{}_{stem}.csv", self.id));
            std::fs::write(&p, contents)?;
            paths.push(p);
        }
        Ok(paths)
    }
}

/// A simple fixed-width table builder.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a header row.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Append a row (cells padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut r: Vec<String> = cells.into_iter().map(Into::into).collect();
        r.resize(self.header.len(), String::new());
        self.rows.push(r);
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}  ", c, width = widths[i]);
            }
            let _ = writeln!(out);
        };
        fmt_row(&self.header, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * ncol;
        let _ = writeln!(out, "{}", "-".repeat(total));
        for r in &self.rows {
            fmt_row(r, &widths, &mut out);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let _ = writeln!(out, "{}", self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        for r in &self.rows {
            let _ = writeln!(out, "{}", r.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        out
    }
}

/// Format a simulated-vs-paper cell as "sim (paper)".
pub fn vs(sim: f64, paper: Option<f64>, decimals: usize) -> String {
    match paper {
        Some(p) => format!("{sim:.decimals$} ({p:.decimals$})"),
        None => format!("{sim:.decimals$} (—)"),
    }
}

/// Format an OoM-able simulated cell against the paper's.
pub fn vs_cell(sim: Option<f64>, paper: Option<f64>, decimals: usize) -> String {
    match (sim, paper) {
        (Some(s), Some(p)) => format!("{s:.decimals$} ({p:.decimals$})"),
        (Some(s), None) => format!("{s:.decimals$} (OOM)"),
        (None, Some(p)) => format!("OOM ({p:.decimals$})"),
        (None, None) => "OOM (OOM)".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["model", "latency"]);
        t.row(vec!["Phi2", "3.73"]);
        t.row(vec!["Llama3-long-name", "6.37"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("model"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
        // Columns align: "latency" column starts at the same offset.
        let off = lines[0].find("latency").unwrap();
        assert_eq!(lines[2].find("3.73").unwrap(), off);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["x,y", "z"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",z"));
    }

    #[test]
    fn vs_cell_handles_oom() {
        assert_eq!(vs_cell(Some(1.5), None, 1), "1.5 (OOM)");
        assert_eq!(vs_cell(None, Some(2.0), 1), "OOM (2.0)");
        assert_eq!(vs_cell(None, None, 1), "OOM (OOM)");
    }

    #[test]
    fn result_render_includes_checks() {
        let r = ExperimentResult {
            id: "fig1",
            title: "demo".into(),
            tables: vec!["t".into()],
            checks: vec![Check::new("claim", true, "ok")],
            csv: vec![],
        };
        let s = r.render();
        assert!(s.contains("[PASS] claim"));
        assert!(r.all_pass());
    }

    #[test]
    fn json_export_roundtrips_key_fields() {
        let r = ExperimentResult {
            id: "tab1",
            title: "demo".into(),
            tables: vec![],
            checks: vec![Check::new("c", false, "d")],
            csv: vec![("x".into(), "a,b\n".into())],
        };
        let j = r.to_json();
        assert!(j.contains("\"id\": \"tab1\""));
        assert!(j.contains("\"all_pass\": false"));
        assert!(j.contains("\"claim\": \"c\""));
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["1"]);
        assert!(t.render().lines().count() == 3);
    }
}
