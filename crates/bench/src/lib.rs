//! # peats-bench
//!
//! Shared helpers for the experiment binaries (`exp_*`) and criterion
//! benches that regenerate the paper's quantitative claims (the E1–E12
//! experiment series referenced throughout the workspace).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod space_workload;

/// Prints a markdown-style table: a header row and aligned value rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("|");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!(" {:>w$} |", cell, w = widths[i]));
        }
        line
    };
    let headers: Vec<String> = headers.iter().map(|s| (*s).to_owned()).collect();
    println!("{}", fmt_row(&headers));
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_prints_without_panicking() {
        super::print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
