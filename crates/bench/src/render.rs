//! The text of a report: the one place figure output is written.

use serde::{find_field, Value};
use std::io::{self, Write};

/// Keys and table names starting with `wall_clock` hold timings, which
/// differ run to run: `compare` exempts them and [`render`] prints them
/// to stderr.
pub(crate) fn is_timing(key: &str) -> bool {
    key.starts_with("wall_clock")
}

/// `value.name`, or `Null` when `value` is not a map holding `name`.
pub(crate) fn get<'a>(value: &'a Value, name: &str) -> &'a Value {
    let field = value.as_map().and_then(|m| find_field(m, name));
    field.unwrap_or(&Value::Null)
}

/// The string-keyed entries of a map.
pub(crate) fn entries(value: &Value) -> impl Iterator<Item = (&str, &Value)> {
    let entries = value.as_map().unwrap_or_default().iter();
    entries.filter_map(|(k, v)| Some((k.as_str()?, v)))
}

/// The items of a sequence.
fn items(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        _ => &[],
    }
}

/// Print a report's JSON value ([`Report::to_value`](crate::Report::to_value)):
/// the banner with its title and paper claim, every table, and the
/// `paper vs reproduction` footer. Tables and footer rows named
/// `wall_clock*` go to `err`, so `out` is the same on every run.
pub fn render(report: &Value, out: &mut dyn Write, err: &mut dyn Write) -> io::Result<()> {
    let (title, claim) = (cell(get(report, "title")), cell(get(report, "claim")));
    let rule = "=".repeat(64);
    writeln!(out, "{rule}\n{title}\npaper claim: {claim}\n{rule}")?;
    let to: [&mut dyn Write; 2] = [out, err];
    for (name, table) in entries(get(report, "tables")) {
        write_table(to[usize::from(is_timing(name))], name, table)?;
    }
    writeln!(to[0], "\n--- paper vs reproduction ---")?;
    for (key, row) in entries(get(report, "paper_vs_measured")) {
        writeln!(to[usize::from(is_timing(key))], "  {key}: {}", cell(row))?;
    }
    Ok(())
}

/// A table's name, then its column names and rows, each column as wide
/// as its widest cell: the first left-aligned, the others right-aligned.
fn write_table(w: &mut dyn Write, name: &str, table: &Value) -> io::Result<()> {
    let line = |cells: &Value| items(cells).iter().map(cell).collect::<Vec<_>>();
    let mut lines = vec![line(get(table, "columns"))];
    lines.extend(items(get(table, "rows")).iter().map(line));
    let mut widths = vec![0; lines[0].len()];
    for line in &lines {
        for (width, cell) in widths.iter_mut().zip(line) {
            *width = cell.chars().count().max(*width);
        }
    }
    writeln!(w, "\n{name}")?;
    for line in &lines {
        let cells = line
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(i, (cell, &width))| match i {
                0 => format!("  {cell:<width$}"),
                _ => format!("  {cell:>width$}"),
            });
        writeln!(w, "{}", cells.collect::<String>().trim_end())?;
    }
    Ok(())
}

/// A cell's text: a string as it is, a number by [`number`].
fn cell(v: &Value) -> String {
    match *v {
        Value::U64(n) => number(n as f64),
        Value::I64(n) => number(n as f64),
        Value::F64(x) => number(x),
        _ => v.as_str().unwrap_or_default().to_string(),
    }
}

/// Every number in every table is written by this one rule: integers in
/// full, others to four significant digits, very large or small ones in
/// exponent form. It reads the value, not how JSON stored it, so a
/// report renders the same before and after a round trip through its
/// file.
fn number(x: f64) -> String {
    let (x, mag) = (x + 0.0, x.abs()); // + 0.0 prints -0 as 0
    if x.fract() == 0.0 && mag < 1e15 {
        format!("{x:.0}")
    } else if (1e-3..1e6).contains(&mag) {
        format!("{x:.*}", (3 - mag.log10().floor() as i32).max(0) as usize)
    } else {
        format!("{x:.3e}")
    }
}

#[cfg(test)]
mod tests {
    use super::number;

    #[test]
    fn numbers_follow_one_rule() {
        let cases = [
            (3.0, "3"),
            (-0.0, "0"),
            (123456.0, "123456"),
            (0.5, "0.5000"),
            (99.456, "99.46"),
            (1234.56, "1235"),
            (-2.5, "-2.500"),
            (1.0e-5, "1.000e-5"),
            (2.5e7 + 0.5, "2.500e7"),
        ];
        for (x, want) in cases {
            assert_eq!(number(x), want, "{x}");
        }
    }
}
