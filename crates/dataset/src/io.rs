//! CSV import/export.
//!
//! The reproduction runs on synthetic surrogates, but a downstream user will
//! want to feed the *real* UCI/KEEL files through the same pipeline. This
//! module reads headered CSV into a [`Dataset`] — inferring numeric vs
//! categorical columns and densifying string labels — and writes datasets
//! back out.

use crate::dataset::{Dataset, DatasetError, FeatureKind};
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::path::Path;

/// Which column holds the class label.
#[derive(Debug, Clone)]
pub enum LabelColumn {
    /// Column by zero-based index.
    Index(usize),
    /// Column by header name.
    Name(String),
    /// The last column (the UCI convention).
    Last,
}

/// CSV parsing options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Label column selector.
    pub label: LabelColumn,
    /// Field separator.
    pub separator: char,
    /// Treat the first row as a header (default true).
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            label: LabelColumn::Last,
            separator: ',',
            has_header: true,
        }
    }
}

/// Errors from CSV import.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file has no data rows.
    Empty,
    /// A row has the wrong number of fields.
    Ragged {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected.
        expected: usize,
    },
    /// The label column selector does not resolve.
    BadLabelColumn(String),
    /// Every row holds only its label: no feature column is left beside it.
    NoFeatures,
    /// A field of a numeric column parsed to a value that is not finite
    /// (`nan`, `inf`, or a literal beyond `f64` such as `1e400`).
    NonFinite {
        /// 1-based line number.
        line: usize,
        /// Zero-based column index.
        column: usize,
        /// Offending text.
        text: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Empty => write!(f, "no data rows"),
            CsvError::Ragged {
                line,
                found,
                expected,
            } => write!(f, "line {line}: {found} fields, expected {expected}"),
            CsvError::BadLabelColumn(s) => write!(f, "label column not found: {s}"),
            CsvError::NoFeatures => write!(f, "no feature column beside the label column"),
            CsvError::NonFinite { line, column, text } => {
                write!(
                    f,
                    "line {line}, column {column}: {text:?} is not a finite number"
                )
            }
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// The trimmed fields of one line.
fn fields(line: &str, sep: char) -> impl Iterator<Item = &str> {
    line.split(sep).map(str::trim)
}

/// Reads a CSV file into a [`Dataset`].
///
/// Column typing: a feature column whose every value parses as `f64` is
/// numeric; otherwise it is categorical and its distinct strings are mapped
/// to integer codes in first-appearance order. A numeric column must hold
/// finite values only. Labels (numeric or string) are densified to `0..q`
/// in sorted order of their text form.
///
/// # Errors
/// See [`CsvError`].
pub fn read_csv(path: &Path, options: &CsvOptions) -> Result<Dataset, CsvError> {
    let content = fs::read_to_string(path)?;
    read_csv_str(&content, options).map(|d| {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        d.with_name(name)
    })
}

/// [`read_csv`] over an in-memory string (used by tests and pipes).
///
/// Each field is parsed at most once, borrowed from `content` (no
/// `String` per field), straight into its cell of one feature matrix
/// allocated once. A column is numeric until a value fails to parse; it is
/// then categorical and its later values are not parsed. If any column
/// turned categorical, one more pass over the rows codes every categorical
/// column from its text in first-appearance order, exactly as if the
/// columns had been typed before reading them. Both passes take time
/// linear in the text. Blank lines are skipped but still counted in the
/// 1-based line numbers errors report.
///
/// From 64 KiB of text on (2 × `PAR_READ_BYTES`), the body is split at
/// line ends into contiguous ranges, up to one per thread, counted and
/// then parsed on the thread pool, each range into its own rows of the
/// matrix. The ranges' label texts, column kinds and errors are merged
/// in range order, so the result — and which error is reported — is the
/// same for any number of ranges.
///
/// # Errors
/// See [`CsvError`]. With several faults the first applies: no data rows,
/// then the first ragged row, then an unresolvable label column, then the
/// first non-finite value of a column that stayed numeric.
pub fn read_csv_str(content: &str, options: &CsvOptions) -> Result<Dataset, CsvError> {
    read_csv_in(
        content,
        options,
        crate::par_ranges(content.len(), PAR_READ_BYTES),
    )
}

/// Text bytes per range below which [`read_csv_str`] does not split its
/// body. A split costs two pool hand-offs and the host's thread count
/// (~12 µs each on a 2-vCPU x86-64 container), where one range parses
/// 220–370 MB/s (banana rows to USPS rows). There two ranges broke even
/// at ~16 KiB each (32 KiB of text: 134 µs in one range, 131 µs in two),
/// took 84% of the one-range time at 32 KiB each and 53–56% from 2 MB up
/// (2 MB of banana rows: 9.3 → 5.0 ms).
const PAR_READ_BYTES: usize = 32 << 10;

/// [`read_csv_str`] with the text after the header split into `ranges`
/// line ranges (at least one).
fn read_csv_in(content: &str, options: &CsvOptions, ranges: usize) -> Result<Dataset, CsvError> {
    use rayon::prelude::*;
    let sep = options.separator;
    // The header is the first non-blank line; the body is what follows it.
    let mut body_start = 0;
    let mut first_line = 1;
    let mut header: Option<Vec<&str>> = None;
    if options.has_header {
        for raw in content.split_inclusive('\n') {
            body_start += raw.len();
            first_line += 1;
            let line = raw.lines().next().unwrap_or_default();
            if !is_blank(line) {
                header = Some(fields(line, sep).collect());
                break;
            }
        }
    }
    let body = &content[body_start..];
    let mut chunks: Vec<Chunk<'_>> = split_lines(body, ranges)
        .into_iter()
        .map(Chunk::new)
        .collect();
    chunks.par_iter_mut().for_each(Chunk::count);
    let n_rows: usize = chunks.iter().map(|c| c.rows).sum();
    let Some(first) = body.lines().find(|l| !is_blank(l)) else {
        return Err(CsvError::Empty);
    };
    let width = header
        .as_ref()
        .map_or_else(|| fields(first, sep).count(), Vec::len);
    let label_idx = match label_column(&options.label, header.as_deref(), width) {
        Ok(idx) => idx,
        Err(e) => {
            // A ragged row outranks a bad label selector.
            for (line, text) in data_lines(body, first_line) {
                let found = fields(text, sep).count();
                if found != width {
                    return Err(CsvError::Ragged {
                        line,
                        found,
                        expected: width,
                    });
                }
            }
            return Err(e);
        }
    };
    let n_features = width - 1;
    let mut features = vec![0.0; n_rows * n_features];
    let mut labels = vec![0u32; n_rows];
    {
        let (mut cells, mut ids) = (&mut features[..], &mut labels[..]);
        let mut line = first_line;
        for chunk in &mut chunks {
            let (mine, rest) = std::mem::take(&mut cells).split_at_mut(chunk.rows * n_features);
            let (my_ids, rest_ids) = std::mem::take(&mut ids).split_at_mut(chunk.rows);
            chunk.first_line = line;
            chunk.cells = mine;
            chunk.labels = my_ids;
            chunk.categorical = vec![false; width];
            line += chunk.lines;
            (cells, ids) = (rest, rest_ids);
        }
    }
    let shape = Shape {
        width,
        label_idx,
        sep,
    };
    chunks.par_iter_mut().for_each(|c| c.parse(shape));
    if let Some(e) = chunks.iter_mut().find_map(|c| c.error.take()) {
        return Err(e);
    }
    if n_features == 0 {
        return Err(CsvError::NoFeatures);
    }
    // Each chunk's label ids index its own first-appearance list; the
    // union of those lists, densified in sorted order of the text, gives
    // the final labels.
    let mut texts: Vec<&str> = chunks
        .iter()
        .flat_map(|c| c.label_texts.iter().copied())
        .collect();
    texts.sort_unstable();
    texts.dedup();
    let n_classes = texts.len();
    let mut categorical = vec![false; width];
    for chunk in &mut chunks {
        let dense: Vec<u32> = chunk
            .label_texts
            .iter()
            .map(|t| texts.binary_search(t).expect("a merged label") as u32)
            .collect();
        for id in chunk.labels.iter_mut() {
            *id = dense[*id as usize];
        }
        for (any, &mine) in categorical.iter_mut().zip(&chunk.categorical) {
            *any |= mine;
        }
    }
    drop(chunks);
    if categorical.contains(&true) {
        // Split each row once more and code every categorical column.
        let mut codes: Vec<HashMap<&str, f64>> = vec![HashMap::new(); width];
        for (cells, (_, row)) in features
            .chunks_exact_mut(n_features)
            .zip(data_lines(body, first_line))
        {
            for (c, field) in fields(row, sep).enumerate() {
                if categorical[c] {
                    cells[c - usize::from(c > label_idx)] = code(&mut codes[c], field);
                }
            }
        }
    }
    let kinds: Vec<FeatureKind> = (0..width)
        .filter(|&c| c != label_idx)
        .map(|c| {
            if categorical[c] {
                FeatureKind::Categorical
            } else {
                FeatureKind::Numeric
            }
        })
        .collect();
    // `parse::<f64>` accepts `nan`, `inf` and overflowing literals; the
    // dataset refuses them, and the error names the field.
    match Dataset::new(features, labels, n_features, n_classes) {
        Ok(data) => Ok(data.with_kinds(kinds)),
        Err(DatasetError::NonFinite { row, col }) => {
            let (line, text) = data_lines(body, first_line).nth(row).expect("a parsed row");
            let column = col + usize::from(col >= label_idx);
            let text = fields(text, sep).nth(column).expect("a full row");
            Err(CsvError::NonFinite {
                line,
                column,
                text: text.to_owned(),
            })
        }
        Err(other) => unreachable!("the reader builds a well-formed table: {other}"),
    }
}

fn label_column(
    label: &LabelColumn,
    header: Option<&[&str]>,
    width: usize,
) -> Result<usize, CsvError> {
    match label {
        LabelColumn::Index(i) if *i >= width => Err(CsvError::BadLabelColumn(format!(
            "index {i} >= width {width}"
        ))),
        LabelColumn::Index(i) => Ok(*i),
        LabelColumn::Name(name) => header
            .and_then(|h| h.iter().position(|c| c == name))
            .ok_or_else(|| CsvError::BadLabelColumn(name.clone())),
        LabelColumn::Last => Ok(width - 1),
    }
}

fn is_blank(line: &str) -> bool {
    line.trim().is_empty()
}

/// The non-blank lines of `text` with their 1-based line numbers, the
/// first line of `text` being line `first_line`.
fn data_lines(text: &str, first_line: usize) -> impl Iterator<Item = (usize, &str)> {
    (first_line..)
        .zip(text.lines())
        .filter(|(_, l)| !is_blank(l))
}

/// Splits `text` into at most `ranges` (at least one) pieces of about
/// equal size, each ending just after a `\n` (or at the end of `text`),
/// so every piece holds whole lines.
fn split_lines(text: &str, ranges: usize) -> Vec<&str> {
    let ranges = ranges.max(1);
    let mut pieces = Vec::with_capacity(ranges);
    let mut start = 0;
    for r in 1..=ranges {
        let end = if r == ranges {
            text.len()
        } else {
            let target = (text.len() * r / ranges).max(start);
            text.as_bytes()[target..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| target + i + 1)
        };
        if end > start {
            pieces.push(&text[start..end]);
            start = end;
        }
    }
    if pieces.is_empty() {
        pieces.push(text);
    }
    pieces
}

/// What every range of one read shares.
#[derive(Clone, Copy)]
struct Shape {
    width: usize,
    label_idx: usize,
    sep: char,
}

/// One contiguous line range of a [`read_csv_str`] body and what its
/// parse found.
struct Chunk<'a> {
    text: &'a str,
    /// Lines in `text`, blank ones included.
    lines: usize,
    /// Non-blank lines in `text`: the range's rows.
    rows: usize,
    /// The 1-based line number of the first line of `text`.
    first_line: usize,
    /// The range's rows of the feature matrix (row-major), and their
    /// labels as indices into `label_texts`.
    cells: &'a mut [f64],
    labels: &'a mut [u32],
    /// The range's distinct label texts in first-appearance order.
    label_texts: Vec<&'a str>,
    /// Per column: whether some value of the range failed to parse as a
    /// number.
    categorical: Vec<bool>,
    /// The range's first ragged row; the range stops there.
    error: Option<CsvError>,
}

impl<'a> Chunk<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            text,
            lines: 0,
            rows: 0,
            first_line: 0,
            cells: &mut [],
            labels: &mut [],
            label_texts: Vec::new(),
            categorical: Vec::new(),
            error: None,
        }
    }

    fn count(&mut self) {
        let (mut lines, mut rows) = (0, 0);
        for line in self.text.lines() {
            lines += 1;
            rows += usize::from(!is_blank(line));
        }
        (self.lines, self.rows) = (lines, rows);
    }

    fn parse(&mut self, shape: Shape) {
        // Work on locals: the chunks sit side by side in one vector, and
        // writing their fields from several threads would share cache
        // lines.
        let mut label_texts = std::mem::take(&mut self.label_texts);
        let mut categorical = std::mem::take(&mut self.categorical);
        self.error = parse_rows(
            data_lines(self.text, self.first_line),
            shape,
            self.cells,
            self.labels,
            &mut label_texts,
            &mut categorical,
        );
        (self.label_texts, self.categorical) = (label_texts, categorical);
    }
}

/// Parses `rows` (line number, text) into the row-major `cells` and the
/// `labels`, interning label texts into `label_texts` in first-appearance
/// order and flagging columns that fail to parse in `categorical`.
/// Returns the first ragged row; parsing stops there.
fn parse_rows<'a>(
    rows: impl Iterator<Item = (usize, &'a str)>,
    Shape {
        width,
        label_idx,
        sep,
    }: Shape,
    cells: &mut [f64],
    labels: &mut [u32],
    label_texts: &mut Vec<&'a str>,
    categorical: &mut [bool],
) -> Option<CsvError> {
    let n_features = width - 1;
    let mut label_ids: HashMap<&'a str, u32> = HashMap::new();
    for (r, (line, text)) in rows.enumerate() {
        let cells = &mut cells[r * n_features..(r + 1) * n_features];
        let label = &mut labels[r];
        let mut found = 0;
        for (c, field) in fields(text, sep).enumerate() {
            found += 1;
            if c >= width {
                // Keep counting for the report.
                continue;
            }
            if c == label_idx {
                let next = label_texts.len() as u32;
                *label = *label_ids.entry(field).or_insert(next);
                if *label == next {
                    label_texts.push(field);
                }
                continue;
            }
            cells[c - usize::from(c > label_idx)] = if categorical[c] {
                f64::NAN
            } else if let Ok(v) = field.parse::<f64>() {
                v
            } else {
                categorical[c] = true;
                f64::NAN
            };
        }
        if found != width {
            return Some(CsvError::Ragged {
                line,
                found,
                expected: width,
            });
        }
    }
    None
}

/// The categorical code of `text`: its first-appearance index.
fn code<'a>(codes: &mut HashMap<&'a str, f64>, text: &'a str) -> f64 {
    let next = codes.len() as f64;
    *codes.entry(text).or_insert(next)
}

/// Cells (values and labels) per range below which [`write_csv_str`] and
/// [`write_csv`] do not split a table. A split costs a pool hand-off and
/// the host's thread count (~12 µs each on a 2-vCPU x86-64 container),
/// where one range formats 9–12 M cells/s (shortest round-trip floats).
/// There two ranges broke even at ~600 cells each (1,200 cells: 93 µs in
/// one range, 88 µs in two), took 75% of the one-range time at 1,200
/// cells each and 56–84% from 10 k cells up.
const PAR_WRITE_CELLS: usize = 1_024;

/// Text bytes a piece of written CSV holds at most (estimated from the
/// first row). [`write_csv`] keeps one round of pieces in memory, one per
/// range, not the whole text: ~0.5 MB on two threads where the
/// `offline-usps-256d` input is 5.8 MB. A round costs a pool hand-off and
/// the host's thread count (~12 µs each on a 2-vCPU x86-64 container),
/// ~2% of formatting its two pieces there.
const PIECE_BYTES: usize = 256 << 10;

/// How [`emit_csv`] splits the rows of `data`: the ranges per round (one
/// below 2 × [`PAR_WRITE_CELLS`] cells, else up to one per thread), the
/// rows per piece, and the first row's text length.
fn write_plan(data: &Dataset) -> (usize, usize, usize) {
    let cells = data.n_samples() * (data.n_features() + 1);
    let mut first = String::new();
    format_rows(data, 0..data.n_samples().min(1), &mut first);
    let piece_rows = PIECE_BYTES / first.len().max(1);
    (
        crate::par_ranges(cells, PAR_WRITE_CELLS),
        piece_rows,
        first.len(),
    )
}

/// Hands the CSV text of `data` to `emit` in row order: the header, then
/// the rows in pieces of `piece_rows` rows, formatted `ranges` pieces at a
/// time on the thread pool (on the calling thread when `ranges` is 1).
/// The piece buffers are allocated once, here, on the calling thread,
/// sized from `row_bytes` (the first row's text length), and reused.
fn emit_csv<E>(
    data: &Dataset,
    (ranges, piece_rows, row_bytes): (usize, usize, usize),
    mut emit: impl FnMut(&str) -> Result<(), E>,
) -> Result<(), E> {
    use rayon::prelude::*;
    use std::fmt::Write as _;
    let mut header = String::new();
    for j in 0..data.n_features() {
        write!(header, "f{j},").expect("formatting into a String cannot fail");
    }
    header.push_str("label\n");
    emit(&header)?;
    let n = data.n_samples();
    let piece_rows = piece_rows.max(1);
    // An eighth of slack absorbs rows with longer numbers.
    let capacity = row_bytes * piece_rows.min(n);
    let per_round = ranges.clamp(1, n.div_ceil(piece_rows).max(1));
    let mut pieces: Vec<(std::ops::Range<usize>, String)> = (0..per_round)
        .map(|_| (0..0, String::with_capacity(capacity + capacity / 8)))
        .collect();
    let mut next = 0;
    while next < n {
        for (rows, _) in &mut pieces {
            *rows = next..(next + piece_rows).min(n);
            next = rows.end;
        }
        pieces.par_iter_mut().for_each(|(rows, text)| {
            // Format into a local: the pieces' headers sit side by side
            // in one vector, and growing them from several threads would
            // share cache lines.
            let mut local = std::mem::take(text);
            local.clear();
            format_rows(data, rows.clone(), &mut local);
            *text = local;
        });
        for (_, text) in &pieces {
            emit(text)?;
        }
    }
    Ok(())
}

/// Appends rows `rows` of `data` to `out` as CSV lines.
fn format_rows(data: &Dataset, rows: std::ops::Range<usize>, out: &mut String) {
    use std::fmt::Write as _;
    for i in rows {
        for v in data.row(i) {
            write!(out, "{v},").expect("formatting into a String cannot fail");
        }
        writeln!(out, "{}", data.label(i)).expect("formatting into a String cannot fail");
    }
}

/// Renders a dataset as headered CSV text (`f0..f{p-1}, label`), the exact
/// format [`read_csv_str`] parses back (numeric round trip is lossless:
/// values print via Rust's shortest-roundtrip float formatting). From
/// 2,048 cells on (2 × `PAR_WRITE_CELLS`), the rows are formatted in
/// contiguous ranges on the thread pool and joined in row order; the text
/// is the same for any number of ranges.
#[must_use]
pub fn write_csv_str(data: &Dataset) -> String {
    let plan = write_plan(data);
    let rows = plan.2 * data.n_samples();
    let mut out = String::with_capacity(rows + rows / 8);
    let joined: Result<(), std::convert::Infallible> = emit_csv(data, plan, |text| {
        out.push_str(text);
        Ok(())
    });
    let Ok(()) = joined;
    out
}

/// Writes a dataset as headered CSV (`f0..f{p-1}, label`), the text of
/// [`write_csv_str`], formatted and written in pieces of at most ~256 KiB
/// (`PIECE_BYTES`) rather than held in memory whole.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_csv(data: &Dataset, path: &Path) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut file = fs::File::create(path)?;
    emit_csv(data, write_plan(data), |text| {
        file.write_all(text.as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
a,b,color,class
1.0,2.5,red,yes
2.0,3.5,blue,no
3.0,4.5,red,yes
4.5,0.5,green,no
";

    #[test]
    fn parses_mixed_columns() {
        let d = read_csv_str(SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_samples(), 4);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.n_classes(), 2);
        assert_eq!(
            d.feature_kinds(),
            &[
                FeatureKind::Numeric,
                FeatureKind::Numeric,
                FeatureKind::Categorical
            ]
        );
        // "red" appeared first -> code 0; "blue" -> 1; "green" -> 2
        assert_eq!(d.value(0, 2), 0.0);
        assert_eq!(d.value(1, 2), 1.0);
        assert_eq!(d.value(3, 2), 2.0);
        // labels sorted: "no" -> 0, "yes" -> 1
        assert_eq!(d.label(0), 1);
        assert_eq!(d.label(1), 0);
    }

    #[test]
    fn label_by_name_and_index() {
        let by_name = read_csv_str(
            SAMPLE,
            &CsvOptions {
                label: LabelColumn::Name("class".into()),
                ..Default::default()
            },
        )
        .unwrap();
        let by_index = read_csv_str(
            SAMPLE,
            &CsvOptions {
                label: LabelColumn::Index(3),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(by_name.labels(), by_index.labels());
    }

    #[test]
    fn label_in_middle_column() {
        let csv = "x,class,y\n1,a,2\n3,b,4\n";
        let d = read_csv_str(
            csv,
            &CsvOptions {
                label: LabelColumn::Index(1),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.row(0), &[1.0, 2.0]);
        assert_eq!(d.label(1), 1);
    }

    #[test]
    fn ragged_rows_rejected() {
        let csv = "a,b\n1,2\n3\n";
        let err = read_csv_str(csv, &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Ragged { line: 3, .. }), "{err}");
    }

    #[test]
    fn missing_label_column_rejected() {
        let err = read_csv_str(
            SAMPLE,
            &CsvOptions {
                label: LabelColumn::Name("nope".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CsvError::BadLabelColumn(_)));
    }

    #[test]
    fn label_only_rows_are_refused() {
        // One column leaves no feature beside the label; a ragged row still
        // outranks that, and so does a header-less file's one column.
        let err = read_csv_str("label\na\nb\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::NoFeatures), "{err}");
        assert_eq!(err.to_string(), "no feature column beside the label column");
        let err = read_csv_str("label\na\nb,c\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Ragged { line: 3, .. }), "{err}");
        let options = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        let err = read_csv_str("1\n2\n", &options).unwrap_err();
        assert!(matches!(err, CsvError::NoFeatures), "{err}");
    }

    #[test]
    fn empty_file_rejected() {
        let err = read_csv_str("a,b\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Empty));
    }

    #[test]
    fn headerless_parsing() {
        let csv = "1,2,0\n3,4,1\n";
        let d = read_csv_str(
            csv,
            &CsvOptions {
                has_header: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(d.n_samples(), 2);
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn roundtrip_through_files() {
        use crate::catalog::DatasetId;
        let d = DatasetId::S2.generate(0.05, 1);
        let path = std::env::temp_dir().join("gbabs-io-test.csv");
        write_csv(&d, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_samples(), d.n_samples());
        assert_eq!(back.n_features(), d.n_features());
        assert_eq!(back.labels(), d.labels());
        for i in 0..d.n_samples() {
            for j in 0..d.n_features() {
                assert!((back.value(i, j) - d.value(i, j)).abs() < 1e-12);
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn semicolon_separator() {
        let csv = "a;b;c\n1;2;x\n3;4;y\n";
        let d = read_csv_str(
            csv,
            &CsvOptions {
                separator: ';',
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.n_classes(), 2);
    }

    #[test]
    fn column_failing_in_its_last_row_turns_categorical() {
        // "1" and "1.0" parse to the same number but are distinct texts,
        // so the categorical column keeps them apart.
        let csv = "a,b,class\n1,5,x\n2,6,y\n1.0,7,x\n1,8,y\nfoo,9,x\n";
        let d = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(
            d.feature_kinds(),
            &[FeatureKind::Categorical, FeatureKind::Numeric]
        );
        let column: Vec<f64> = (0..d.n_samples()).map(|r| d.value(r, 0)).collect();
        assert_eq!(column, [0.0, 1.0, 2.0, 0.0, 3.0]);
        let numeric: Vec<f64> = (0..d.n_samples()).map(|r| d.value(r, 1)).collect();
        assert_eq!(numeric, [5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn wide_rows_turning_categorical_read_in_linear_time() {
        // Every column of the second row fails to parse. Coding each
        // column as it turns categorical by splitting the earlier rows
        // again would take ~width² / 2 field steps (10^10 here).
        let width = 150_000;
        let row = |text: &str, label: &str| format!("{}{label}\n", text.repeat(width - 1));
        let options = CsvOptions {
            has_header: false,
            ..Default::default()
        };
        let started = std::time::Instant::now();
        let d = read_csv_str(&(row("1,", "0") + &row("x,", "1")), &options).unwrap();
        // The same second row, one field short.
        let short = read_csv_str(&(row("1,", "0") + &row("x,", "1")[2..]), &options);
        let elapsed = started.elapsed();
        assert!(elapsed < std::time::Duration::from_secs(10), "{elapsed:?}");
        assert_eq!(d.n_features(), width - 1);
        assert!(d
            .feature_kinds()
            .iter()
            .all(|&k| k == FeatureKind::Categorical));
        assert!(d.row(0).iter().all(|&v| v == 0.0));
        assert!(d.row(1).iter().all(|&v| v == 1.0));
        let Err(CsvError::Ragged { line: 2, found, .. }) = short else {
            panic!("the short row was not reported as ragged");
        };
        assert_eq!(found, width - 1);
    }

    #[test]
    fn categorical_column_left_of_the_label_recodes_its_own_cells() {
        let csv = "class,a,b\nx,1,p\ny,2,q\nx,3,p\n";
        let d = read_csv_str(
            csv,
            &CsvOptions {
                label: LabelColumn::Index(0),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(d.row(0), &[1.0, 0.0]);
        assert_eq!(d.row(1), &[2.0, 1.0]);
        assert_eq!(d.row(2), &[3.0, 0.0]);
    }

    #[test]
    fn blank_lines_keep_reported_line_numbers() {
        // Line 1 header, 2 blank, 3 data, 4 whitespace-only, 5 ragged.
        let csv = "a,b,c\n\n1,2,0\n  \t\n3,4\n";
        let err = read_csv_str(csv, &CsvOptions::default()).unwrap_err();
        assert!(
            matches!(
                err,
                CsvError::Ragged {
                    line: 5,
                    found: 2,
                    expected: 3
                }
            ),
            "{err}"
        );
        // CRLF line ends and a trailing blank line read like LF ones.
        let d = read_csv_str("a,b\r\n1,0\r\n\r\n2,1\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(d.n_samples(), 2);
        assert_eq!(d.labels(), &[0, 1]);
    }

    #[test]
    fn ragged_row_outranks_a_bad_label_column() {
        let csv = "a,b\n1,2\n3\n";
        let err = read_csv_str(
            csv,
            &CsvOptions {
                label: LabelColumn::Name("nope".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CsvError::Ragged { line: 3, .. }), "{err}");
        let err = read_csv_str(
            "a,b\n1,2\n",
            &CsvOptions {
                label: LabelColumn::Index(2),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CsvError::BadLabelColumn(_)), "{err}");
    }

    #[test]
    fn string_labels_densify_in_sorted_order() {
        // First appearance is pear, apple, fig; sorted text order is
        // apple < fig < pear. Numeric labels sort as text too.
        let csv = "x,label\n1,pear\n2,apple\n3,fig\n4,pear\n5,apple\n";
        let d = read_csv_str(csv, &CsvOptions::default()).unwrap();
        assert_eq!(d.n_classes(), 3);
        assert_eq!(d.labels(), &[2, 0, 1, 2, 0]);
        let d = read_csv_str("x,label\n1,10\n2,9\n3,10\n", &CsvOptions::default()).unwrap();
        assert_eq!(d.labels(), &[0, 1, 0]);
    }

    #[test]
    fn written_floats_keep_their_exact_text() {
        let d = Dataset::from_parts(
            vec![-0.0, 1e-7, 1e21, 5e-324, 0.1 + 0.2, 2.5],
            vec![1, 0],
            3,
            2,
        );
        let text = write_csv_str(&d);
        let expected = format!(
            "f0,f1,f2,label\n-0,0.0000001,1000000000000000000000,1\n0.{}5,0.30000000000000004,2.5,0\n",
            "0".repeat(323)
        );
        assert_eq!(text, expected);
        let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.features()), bits(d.features()));

        let path = std::env::temp_dir().join("gbabs-io-float-text.csv");
        write_csv(&d, &path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_finite_numbers_are_errors_naming_the_field() {
        for text in ["nan", "inf", "1e400", "-inf", "NaN", "infinity"] {
            let csv = format!("a,b,label\n1.0,2.0,x\n3.0,{text},y\n");
            match read_csv_str(&csv, &CsvOptions::default()) {
                Err(CsvError::NonFinite {
                    line,
                    column,
                    text: got,
                }) => {
                    assert_eq!((line, column, got.as_str()), (3, 1, text));
                }
                other => panic!("{text}: {other:?}"),
            }
        }
        let err = read_csv_str("a,label\ninf,x\n", &CsvOptions::default()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 2, column 0: \"inf\" is not a finite number"
        );
        // The column is the field's place in the line, label included.
        let label_first = CsvOptions {
            label: LabelColumn::Index(0),
            ..CsvOptions::default()
        };
        let err = read_csv_str("label,a,b\nx,1,2\n\ny,3,-inf\n", &label_first).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4, column 2: \"-inf\" is not a finite number"
        );
    }

    #[test]
    fn non_finite_text_in_a_categorical_column_is_a_category() {
        // `inf` is then just another category, coded in first-appearance
        // order like `red`.
        let d = read_csv_str("a,label\ninf,x\nred,y\ninf,y\n", &CsvOptions::default()).unwrap();
        assert_eq!(d.feature_kinds(), &[FeatureKind::Categorical]);
        assert_eq!(d.features(), &[0.0, 1.0, 0.0]);
    }

    /// Everything a read produced, in comparable form.
    fn outcome(result: Result<Dataset, CsvError>) -> Result<String, String> {
        result
            .map(|d| {
                let bits: Vec<u64> = d.features().iter().map(|v| v.to_bits()).collect();
                format!(
                    "{}x{} q={} kinds={:?} labels={:?} bits={bits:?}",
                    d.n_samples(),
                    d.n_features(),
                    d.n_classes(),
                    d.feature_kinds(),
                    d.labels(),
                )
            })
            .map_err(|e| e.to_string())
    }

    /// Reads `csv` in 1, 2, 3 and 8 ranges and asserts every read equals
    /// the one-range read; returns that.
    fn read_every_split(csv: &str, options: &CsvOptions) -> Result<String, String> {
        let serial = outcome(read_csv_in(csv, options, 1));
        for ranges in [2, 3, 8] {
            assert_eq!(
                outcome(read_csv_in(csv, options, ranges)),
                serial,
                "{ranges} ranges"
            );
        }
        serial
    }

    /// Rows `x,y,label` of a 1-d walk, enough that 8 ranges each hold
    /// several of them.
    fn rows(n: usize, label: impl Fn(usize) -> String) -> String {
        (0..n)
            .map(|i| format!("{}.5,{},{}\n", i, i % 7, label(i)))
            .collect()
    }

    #[test]
    fn split_reads_merge_labels_in_range_order() {
        // "zz" first appears in the last eighth; "aa" sorts first but
        // appears after "mm".
        let csv = format!(
            "x,y,label\n{}{}",
            rows(60, |i| if i % 2 == 0 { "mm" } else { "aa" }.into()),
            rows(10, |_| "zz".into())
        );
        let read = read_every_split(&csv, &CsvOptions::default()).unwrap();
        assert!(read.starts_with("70x2 q=3"), "{read}");
        let d = read_csv_in(&csv, &CsvOptions::default(), 8).unwrap();
        assert_eq!(&d.labels()[..2], &[1, 0]);
        assert_eq!(d.labels()[69], 2);
    }

    #[test]
    fn split_reads_code_a_late_categorical_column_from_the_first_row() {
        // Column y parses as numbers until row 65 of 70.
        let mut csv = format!("x,y,label\n{}", rows(65, |i| (i % 2).to_string()));
        csv.push_str("1,red,0\n2,3,1\n3,red,0\n4,blue,1\n5,3,0\n");
        read_every_split(&csv, &CsvOptions::default()).unwrap();
        let d = read_csv_in(&csv, &CsvOptions::default(), 8).unwrap();
        assert_eq!(
            d.feature_kinds(),
            &[FeatureKind::Numeric, FeatureKind::Categorical]
        );
        // y's texts in first-appearance order: "0", "1", ..., "6", "red".
        assert_eq!(d.value(0, 1), 0.0);
        assert_eq!(d.value(65, 1), 7.0);
        assert_eq!(d.value(66, 1), 3.0);
        assert_eq!(d.value(68, 1), 8.0);
    }

    #[test]
    fn split_reads_report_the_first_ragged_row() {
        // Ragged rows at lines 12 and 60, in different ranges.
        let mut lines: Vec<String> = rows(70, |i| (i % 2).to_string())
            .lines()
            .map(str::to_owned)
            .collect();
        lines[10] = "1,2".into();
        lines[58] = "1,2,3,4".into();
        let csv = format!("x,y,label\n{}\n", lines.join("\n"));
        let err = read_every_split(&csv, &CsvOptions::default()).unwrap_err();
        assert_eq!(err, "line 12: 2 fields, expected 3");
        // A bad label selector still ranks below it.
        let by_name = CsvOptions {
            label: LabelColumn::Name("nope".into()),
            ..CsvOptions::default()
        };
        assert_eq!(read_every_split(&csv, &by_name).unwrap_err(), err);
    }

    #[test]
    fn split_reads_name_a_late_non_finite_value() {
        let mut csv = format!("x,y,label\n{}", rows(69, |i| (i % 2).to_string()));
        csv.push_str("1,-inf,0\n");
        let err = read_every_split(&csv, &CsvOptions::default()).unwrap_err();
        assert_eq!(err, "line 71, column 1: \"-inf\" is not a finite number");
    }

    #[test]
    fn split_reads_handle_blank_lines_and_crlf_at_every_edge() {
        // CRLF everywhere and a blank or whitespace-only line after every
        // third row: every split point meets one of them somewhere.
        let mut csv = String::from("\r\n  \r\nx,y,label\r\n\r\n");
        for i in 0..60 {
            csv.push_str(&format!("{i}.25,{},{}\r\n", i % 5, i % 3));
            match i % 3 {
                0 => csv.push_str("\r\n"),
                1 => csv.push_str(" \t\r\n"),
                _ => {}
            }
        }
        csv.push_str("60.25,0,0");
        let read = read_every_split(&csv, &CsvOptions::default()).unwrap();
        assert!(read.starts_with("61x2 q=3"), "{read}");
        // A ragged row after blank lines keeps its line number.
        let ragged = format!("{csv}\r\n\r\n1,2\r\n");
        assert_eq!(
            read_every_split(&ragged, &CsvOptions::default()).unwrap_err(),
            format!("line {}: 2 fields, expected 3", csv.lines().count() + 2)
        );
        let headerless = CsvOptions {
            has_header: false,
            ..CsvOptions::default()
        };
        read_every_split(&csv.replace("x,y,label", ""), &headerless).unwrap();
        assert_eq!(
            read_every_split("a,b\r\n\r\n \r\n", &CsvOptions::default()).unwrap_err(),
            "no data rows"
        );
    }

    #[test]
    fn split_writes_join_to_the_one_range_text() {
        use crate::catalog::DatasetId;
        for data in [
            DatasetId::S2.generate(0.05, 1),
            Dataset::from_parts(
                vec![-0.0, 1e-7, 1e21, 5e-324, 0.1 + 0.2, 2.5],
                vec![1, 0],
                3,
                2,
            ),
            Dataset::from_parts(vec![1.5], vec![0], 1, 1),
        ] {
            let n = data.n_samples();
            let text = |ranges: usize, piece_rows: usize| {
                let mut pieces = Vec::new();
                let emitted: Result<(), ()> = emit_csv(&data, (ranges, piece_rows, 8), |t| {
                    pieces.push(t.to_owned());
                    Ok(())
                });
                emitted.unwrap();
                pieces.concat()
            };
            let serial = text(1, n);
            assert_eq!(serial, write_csv_str(&data));
            for ranges in [1, 2, 3, 8] {
                for piece_rows in [1, 2, 7, n] {
                    assert_eq!(
                        text(ranges, piece_rows),
                        serial,
                        "{ranges} ranges of {piece_rows} rows"
                    );
                }
            }
        }
    }

    mod roundtrip_props {
        use super::super::*;
        use proptest::prelude::*;

        fn arb_numeric_dataset() -> impl Strategy<Value = Dataset> {
            (1usize..40, 1usize..6, 1usize..4).prop_flat_map(|(n, p, q)| {
                (
                    proptest::collection::vec(-1e6f64..1e6, n * p),
                    proptest::collection::vec(0u32..q as u32, n),
                    Just(p),
                )
                    .prop_map(move |(feats, mut labels, p)| {
                        // ensure every class id below the max present label is
                        // dense enough for read_csv's label densification to
                        // reproduce the same ids: force labels 0..q' to appear
                        labels.sort_unstable();
                        let q_eff = (*labels.last().unwrap() as usize + 1).min(labels.len());
                        for (i, l) in labels.iter_mut().take(q_eff).enumerate() {
                            *l = i as u32;
                        }
                        let q = *labels.iter().max().unwrap() as usize + 1;
                        Dataset::from_parts(feats, labels, p, q)
                    })
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn numeric_csv_roundtrip_is_lossless(data in arb_numeric_dataset()) {
                let text = write_csv_str(&data);
                let back = read_csv_str(&text, &CsvOptions::default()).unwrap();
                prop_assert_eq!(back.n_samples(), data.n_samples());
                prop_assert_eq!(back.n_features(), data.n_features());
                prop_assert_eq!(back.n_classes(), data.n_classes());
                prop_assert_eq!(back.features(), data.features());
                prop_assert_eq!(back.labels(), data.labels());
            }

            #[test]
            fn written_csv_has_one_line_per_row_plus_header(
                data in arb_numeric_dataset()
            ) {
                let text = write_csv_str(&data);
                prop_assert_eq!(text.lines().count(), data.n_samples() + 1);
                prop_assert!(text.starts_with("f0,"));
            }
        }
    }
}
