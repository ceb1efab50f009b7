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
/// One pass over the text parses each field at most once, borrowed from
/// `content` (no `String` per field). A column is numeric until a value
/// fails to parse; it is then categorical and its later values are not
/// parsed. If any column turned categorical, one more pass over the rows
/// codes every categorical column from its text in first-appearance
/// order, exactly as if the columns had been typed before reading them.
/// Both passes take time linear in the text. Blank lines are skipped but
/// still counted in the 1-based line numbers errors report.
///
/// # Errors
/// See [`CsvError`]. With several faults the first applies: no data rows,
/// then the first ragged row, then an unresolvable label column, then the
/// first non-finite value of a column that stayed numeric.
pub fn read_csv_str(content: &str, options: &CsvOptions) -> Result<Dataset, CsvError> {
    let sep = options.separator;
    let mut lines = content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i + 1, l));
    let header: Option<Vec<&str>> = if options.has_header {
        lines.next().map(|(_, l)| fields(l, sep).collect())
    } else {
        None
    };
    let mut lines = lines.peekable();
    let Some(&(_, first)) = lines.peek() else {
        return Err(CsvError::Empty);
    };
    let width = header
        .as_ref()
        .map_or_else(|| fields(first, sep).count(), Vec::len);
    let label_idx = match label_column(&options.label, header.as_deref(), width) {
        Ok(idx) => idx,
        Err(e) => {
            // A ragged row outranks a bad label selector.
            for (line, text) in lines {
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
    let mut table = Table::new(width, label_idx, sep);
    for (line, text) in lines {
        table.push_row(line, text)?;
    }
    table.finish()
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

/// The columns [`read_csv_str`] has read so far.
struct Table<'a> {
    width: usize,
    label_idx: usize,
    sep: char,
    /// Row-major feature values: numbers, or a placeholder in categorical
    /// columns until [`Table::finish`] codes them.
    features: Vec<f64>,
    /// Per column: whether some value failed to parse as a number.
    categorical: Vec<bool>,
    /// The rows read so far with their line numbers, for [`Table::finish`]
    /// to code the categorical columns from and to name a bad field.
    rows: Vec<(usize, &'a str)>,
    /// Each row's label as an index into `label_texts`.
    labels: Vec<u32>,
    label_ids: HashMap<&'a str, u32>,
    /// Distinct label texts in first-appearance order.
    label_texts: Vec<&'a str>,
}

impl<'a> Table<'a> {
    fn new(width: usize, label_idx: usize, sep: char) -> Self {
        Self {
            width,
            label_idx,
            sep,
            features: Vec::new(),
            categorical: vec![false; width],
            rows: Vec::new(),
            labels: Vec::new(),
            label_ids: HashMap::new(),
            label_texts: Vec::new(),
        }
    }

    fn push_row(&mut self, line: usize, text: &'a str) -> Result<(), CsvError> {
        let mut found = 0;
        for (c, field) in fields(text, self.sep).enumerate() {
            found += 1;
            if c >= self.width {
                // Keep counting for the report.
                continue;
            }
            if c == self.label_idx {
                let next = self.label_texts.len() as u32;
                let id = *self.label_ids.entry(field).or_insert(next);
                if id == next {
                    self.label_texts.push(field);
                }
                self.labels.push(id);
                continue;
            }
            let value = if self.categorical[c] {
                f64::NAN
            } else if let Ok(v) = field.parse::<f64>() {
                v
            } else {
                self.categorical[c] = true;
                f64::NAN
            };
            self.features.push(value);
        }
        if found != self.width {
            return Err(CsvError::Ragged {
                line,
                found,
                expected: self.width,
            });
        }
        self.rows.push((line, text));
        Ok(())
    }

    fn finish(mut self) -> Result<Dataset, CsvError> {
        let n_features = self.width - 1;
        if self.categorical.contains(&true) {
            // Split each row once more and code every categorical column.
            let mut codes: Vec<HashMap<&str, f64>> = vec![HashMap::new(); self.width];
            for (r, &(_, row)) in self.rows.iter().enumerate() {
                let cells = &mut self.features[r * n_features..][..n_features];
                for (c, field) in fields(row, self.sep).enumerate() {
                    if self.categorical[c] {
                        let column = c - usize::from(c > self.label_idx);
                        cells[column] = code(&mut codes[c], field);
                    }
                }
            }
        }
        // Labels densify to 0..q in sorted order of their text.
        let mut sorted: Vec<u32> = (0..self.label_texts.len() as u32).collect();
        sorted.sort_unstable_by_key(|&id| self.label_texts[id as usize]);
        let mut dense = vec![0u32; sorted.len()];
        for (rank, &id) in sorted.iter().enumerate() {
            dense[id as usize] = rank as u32;
        }
        let labels = self.labels.iter().map(|&id| dense[id as usize]).collect();
        let kinds: Vec<FeatureKind> = (0..self.width)
            .filter(|&c| c != self.label_idx)
            .map(|c| {
                if self.categorical[c] {
                    FeatureKind::Categorical
                } else {
                    FeatureKind::Numeric
                }
            })
            .collect();
        // `parse::<f64>` accepts `nan`, `inf` and overflowing literals;
        // the dataset refuses them, and the error names the field.
        match Dataset::new(self.features, labels, n_features, self.label_texts.len()) {
            Ok(data) => Ok(data.with_kinds(kinds)),
            Err(DatasetError::NonFinite { row, col }) => {
                let (line, text) = self.rows[row];
                let column = col + usize::from(col >= self.label_idx);
                let text = fields(text, self.sep).nth(column).expect("a full row");
                Err(CsvError::NonFinite {
                    line,
                    column,
                    text: text.to_owned(),
                })
            }
            Err(other) => unreachable!("the reader builds a well-formed table: {other}"),
        }
    }
}

/// The categorical code of `text`: its first-appearance index.
fn code<'a>(codes: &mut HashMap<&'a str, f64>, text: &'a str) -> f64 {
    let next = codes.len() as f64;
    *codes.entry(text).or_insert(next)
}

/// Renders a dataset as headered CSV text (`f0..f{p-1}, label`), the exact
/// format [`read_csv_str`] parses back (numeric round trip is lossless:
/// values print via Rust's shortest-roundtrip float formatting). The text
/// is formatted straight into one buffer, sized for the whole table once
/// the first row shows how wide a row is.
#[must_use]
pub fn write_csv_str(data: &Dataset) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for j in 0..data.n_features() {
        write!(out, "f{j},").expect("formatting into a String cannot fail");
    }
    out.push_str("label\n");
    for (i, (row, label)) in data.iter_rows().enumerate() {
        let start = out.len();
        for v in row {
            write!(out, "{v},").expect("formatting into a String cannot fail");
        }
        writeln!(out, "{label}").expect("formatting into a String cannot fail");
        if i == 0 {
            // An eighth of slack absorbs rows with longer numbers.
            let rest = (out.len() - start) * (data.n_samples() - 1);
            out.reserve(rest + rest / 8);
        }
    }
    out
}

/// Writes a dataset as headered CSV (`f0..f{p-1}, label`).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_csv(data: &Dataset, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, write_csv_str(data))
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
