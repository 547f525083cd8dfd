//! Column-to-text transformation (paper §3.1, Table 1).
//!
//! A column is *contextualized* into a text sequence before encoding. All
//! seven options from Table 1 are implemented; `title-colname-stat-col` is
//! the paper's best and the default. Variables, as in the paper:
//!
//! * `$column_name$`, `$table_title$`, `$table_context$` — from metadata;
//! * `$n$` — number of distinct cell values;
//! * `$max_len$/$min_len$/$avg_len$` — word-count statistics over cells;
//! * `$col$` — the distinct cell values joined with `", "`.
//!
//! When the contextualized sequence would exceed the encoder's token budget,
//! §3.2 keeps the cells with the highest *frequency* (the number of target
//! columns containing the value); [`CellFrequencies`] supplies those counts.

use deepjoin_lake::column::Column;
use deepjoin_lake::fxhash::FxHashMap;
use deepjoin_lake::repository::Repository;
use serde::{Deserialize, Serialize};

/// The seven contextualization options of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransformOption {
    /// `$cell_1$,$cell_2$,…,$cell_n$`
    Col,
    /// `$column_name$: $col$.`
    ColnameCol,
    /// `$colname-col$. $table_context$`
    ColnameColContext,
    /// `$column_name$ contains $n$ values ($max$, $min$, $avg$): $col$.`
    ColnameStatCol,
    /// `$table_title$. $colname-col$.`
    TitleColnameCol,
    /// `$title-colname-col$. $table_context$`
    TitleColnameColContext,
    /// `$table_title$. $colname-stat-col$.` — the paper's best option.
    TitleColnameStatCol,
}

impl TransformOption {
    /// All options, in Table 1 order.
    pub const ALL: [TransformOption; 7] = [
        TransformOption::Col,
        TransformOption::ColnameCol,
        TransformOption::ColnameColContext,
        TransformOption::ColnameStatCol,
        TransformOption::TitleColnameCol,
        TransformOption::TitleColnameColContext,
        TransformOption::TitleColnameStatCol,
    ];

    /// The paper's name for this option.
    pub fn name(self) -> &'static str {
        match self {
            TransformOption::Col => "col",
            TransformOption::ColnameCol => "colname-col",
            TransformOption::ColnameColContext => "colname-col-context",
            TransformOption::ColnameStatCol => "colname-stat-col",
            TransformOption::TitleColnameCol => "title-colname-col",
            TransformOption::TitleColnameColContext => "title-colname-col-context",
            TransformOption::TitleColnameStatCol => "title-colname-stat-col",
        }
    }

    /// Whether the option includes the column name.
    pub fn has_colname(self) -> bool {
        !matches!(self, TransformOption::Col)
    }

    /// Whether the option includes the table title.
    pub fn has_title(self) -> bool {
        matches!(
            self,
            TransformOption::TitleColnameCol
                | TransformOption::TitleColnameColContext
                | TransformOption::TitleColnameStatCol
        )
    }

    /// Whether the option includes the table context.
    pub fn has_context(self) -> bool {
        matches!(
            self,
            TransformOption::ColnameColContext | TransformOption::TitleColnameColContext
        )
    }

    /// Whether the option includes the statistics clause.
    pub fn has_stat(self) -> bool {
        matches!(
            self,
            TransformOption::ColnameStatCol | TransformOption::TitleColnameStatCol
        )
    }
}

/// Document frequency of cell values across a repository: the number of
/// target columns containing each value (§3.2's truncation criterion).
#[derive(Debug, Clone, Default)]
pub struct CellFrequencies {
    counts: FxHashMap<String, u32>,
}

impl CellFrequencies {
    /// Count cell document-frequencies over `repo`.
    pub fn build(repo: &Repository) -> Self {
        let mut counts: FxHashMap<String, u32> = FxHashMap::default();
        for col in repo.columns() {
            for cell in col.distinct() {
                *counts.entry(cell.clone()).or_insert(0) += 1;
            }
        }
        Self { counts }
    }

    /// Frequency of `cell` (0 when unseen).
    pub fn get(&self, cell: &str) -> u32 {
        self.counts.get(cell).copied().unwrap_or(0)
    }

    /// Number of distinct values tracked.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing was counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(cell, count)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.counts.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Rebuild from `(cell, count)` pairs (persistence path).
    pub fn from_pairs<I: IntoIterator<Item = (String, u32)>>(pairs: I) -> Self {
        Self {
            counts: pairs.into_iter().collect(),
        }
    }
}

/// The contextualizer: option + cell budget + optional frequency table.
#[derive(Debug, Clone)]
pub struct Textizer {
    /// Which Table 1 option to apply.
    pub option: TransformOption,
    /// Maximum number of cells included in `$col$` (the stand-in for the
    /// PLM's 512-token input limit). `usize::MAX` disables truncation.
    pub max_cells: usize,
    freq: Option<CellFrequencies>,
}

impl Textizer {
    /// A textizer without frequency-guided truncation.
    pub fn new(option: TransformOption, max_cells: usize) -> Self {
        Self {
            option,
            max_cells,
            freq: None,
        }
    }

    /// Attach repository cell frequencies for §3.2's truncation rule.
    pub fn with_frequencies(mut self, freq: CellFrequencies) -> Self {
        self.freq = Some(freq);
        self
    }

    /// The attached frequencies, if any (persistence path).
    pub fn frequencies(&self) -> Option<&CellFrequencies> {
        self.freq.as_ref()
    }

    /// Contextualize `column` into a text sequence.
    pub fn transform(&self, column: &Column) -> String {
        let mut out = String::new();
        self.transform_into(column, &mut out);
        out
    }

    /// [`Self::transform`] replacing the contents of `out`, so a caller that
    /// keeps `out` between columns pays for no `String` once it has grown.
    pub fn transform_into(&self, column: &Column, out: &mut String) {
        use std::fmt::Write;
        let (cells, n) = self.select_cells(column);
        let name = column.meta.column_name.as_str();
        out.clear();
        if self.option.has_title() {
            out.extend([column.meta.table_title.as_str(), ". "]);
        }
        if self.option.has_stat() {
            // `$column_name$ contains $n$ values ($max$, $min$, $avg$)`.
            let (max, min, avg) = column.word_stats();
            write!(out, "{name} contains {n} values ({max}, {min}, {avg:.1}): ")
                .expect("writing to a String cannot fail");
        } else if self.option.has_colname() {
            out.extend([name, ": "]);
        }
        for (i, cell) in cells.iter().enumerate() {
            out.extend([if i > 0 { ", " } else { "" }, cell]);
        }
        if self.option.has_colname() {
            out.push('.');
        }
        if self.option.has_context() {
            out.extend([" ", column.meta.table_context.as_str()]);
        }
    }

    /// Distinct cells to include, truncated to the budget — by repository
    /// frequency when available (highest first, §3.2), otherwise by
    /// first-occurrence order — and `$n$`, their number before truncation.
    fn select_cells<'c>(&self, column: &'c Column) -> (Vec<&'c str>, usize) {
        let mut cells = column.distinct_in_order();
        let n = cells.len();
        if n > self.max_cells {
            if let Some(freq) = &self.freq {
                // Stable sort keeps first-occurrence order among ties.
                cells.sort_by_key(|c| std::cmp::Reverse(freq.get(c)));
            }
            cells.truncate(self.max_cells);
        }
        (cells, n)
    }
}

impl Default for Textizer {
    fn default() -> Self {
        Self::new(TransformOption::TitleColnameStatCol, 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepjoin_lake::column::ColumnMeta;

    fn column() -> Column {
        Column::new(
            vec!["paris".into(), "new york".into(), "paris".into(), "tokyo".into()],
            ColumnMeta {
                table_title: "World capitals".into(),
                column_name: "city".into(),
                table_context: "a listing of capitals".into(),
                table_id: None,
            },
        )
    }

    #[test]
    fn col_concatenates_distinct_cells() {
        let t = Textizer::new(TransformOption::Col, usize::MAX);
        assert_eq!(t.transform(&column()), "paris, new york, tokyo");
    }

    #[test]
    fn colname_prefixes() {
        let t = Textizer::new(TransformOption::ColnameCol, usize::MAX);
        assert_eq!(t.transform(&column()), "city: paris, new york, tokyo.");
    }

    #[test]
    fn context_appends() {
        let t = Textizer::new(TransformOption::ColnameColContext, usize::MAX);
        let s = t.transform(&column());
        assert!(s.ends_with("a listing of capitals"));
        assert!(s.starts_with("city:"));
    }

    #[test]
    fn stat_clause_contains_counts() {
        let t = Textizer::new(TransformOption::ColnameStatCol, usize::MAX);
        let s = t.transform(&column());
        // 4 cells with word counts 1, 2, 1, 1 -> avg 1.25, printed "1.2".
        assert!(s.contains("city contains 3 values (2, 1, 1.2)"), "{s}");
    }

    /// `$n$` is the number of distinct cells before the budget cuts the
    /// list, however often each repeats.
    #[test]
    fn stat_clause_counts_distinct_cells_of_a_duplicate_heavy_column() {
        let cells = (0..300).map(|i| format!("v{}", i % 7));
        let t = Textizer::new(TransformOption::ColnameStatCol, 3);
        assert_eq!(
            t.transform(&Column::from_cells(cells)),
            " contains 7 values (1, 1, 1.0): v0, v1, v2."
        );
    }

    #[test]
    fn every_option_matches_its_table_1_pattern() {
        let expect = [
            "paris, new york, tokyo",
            "city: paris, new york, tokyo.",
            "city: paris, new york, tokyo. a listing of capitals",
            "city contains 3 values (2, 1, 1.2): paris, new york, tokyo.",
            "World capitals. city: paris, new york, tokyo.",
            "World capitals. city: paris, new york, tokyo. a listing of capitals",
            "World capitals. city contains 3 values (2, 1, 1.2): paris, new york, tokyo.",
        ];
        // One buffer across all options: `transform_into` replaces, never
        // appends.
        let mut out = String::from("stale");
        for (opt, want) in TransformOption::ALL.into_iter().zip(expect) {
            Textizer::new(opt, usize::MAX).transform_into(&column(), &mut out);
            assert_eq!(out, want, "{opt:?}");
        }
    }

    #[test]
    fn title_options_lead_with_title() {
        for opt in [
            TransformOption::TitleColnameCol,
            TransformOption::TitleColnameColContext,
            TransformOption::TitleColnameStatCol,
        ] {
            let t = Textizer::new(opt, usize::MAX);
            assert!(t.transform(&column()).starts_with("World capitals."), "{opt:?}");
        }
    }

    #[test]
    fn all_options_distinct_output() {
        let outputs: Vec<String> = TransformOption::ALL
            .iter()
            .map(|&o| Textizer::new(o, usize::MAX).transform(&column()))
            .collect();
        for i in 0..outputs.len() {
            for j in (i + 1)..outputs.len() {
                assert_ne!(outputs[i], outputs[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn budget_truncates_by_frequency() {
        use deepjoin_lake::repository::Repository;
        // "common" appears in 3 columns, "rare" in 1.
        let repo = Repository::from_columns(vec![
            Column::from_cells(["common", "a1", "a2", "a3", "a4"]),
            Column::from_cells(["common", "b1", "b2", "b3", "b4"]),
            Column::from_cells(["common", "rare", "c1", "c2", "c3"]),
        ]);
        let freq = CellFrequencies::build(&repo);
        assert_eq!(freq.get("common"), 3);
        assert_eq!(freq.get("rare"), 1);

        let t = Textizer::new(TransformOption::Col, 1).with_frequencies(freq);
        let q = Column::from_cells(["rare", "common"]);
        assert_eq!(t.transform(&q), "common");
    }

    #[test]
    fn budget_without_frequencies_keeps_order() {
        let t = Textizer::new(TransformOption::Col, 2);
        assert_eq!(t.transform(&column()), "paris, new york");
    }

    #[test]
    fn option_predicates() {
        assert!(!TransformOption::Col.has_colname());
        assert!(TransformOption::TitleColnameStatCol.has_stat());
        assert!(TransformOption::ColnameColContext.has_context());
        assert!(TransformOption::TitleColnameCol.has_title());
        assert_eq!(TransformOption::TitleColnameStatCol.name(), "title-colname-stat-col");
    }
}
