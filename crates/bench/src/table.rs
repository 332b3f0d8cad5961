//! Minimal fixed-width table printer for paper-style output.

/// Renders rows of cells with right-aligned columns (widths in chars).
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&" ".repeat(w - c.chars().count()));
            out.push_str(c);
        }
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let s = render(
            &["GPUs", "Time"],
            &[
                vec!["8".into(), "35.1".into()],
                vec!["16".into(), "41.1".into()],
            ],
        );
        assert!(s.contains("GPUs  Time"));
        assert!(s.contains("   8  35.1"));
        assert!(s.contains("  16  41.1"));
    }
}
