//! Columns — the unit of search in joinable table discovery.
//!
//! A data lake is flattened into a repository of columns (paper §2.1): every
//! column that could plausibly appear in a join predicate is extracted from
//! its table together with the metadata DeepJoin's contextualization options
//! use (table title, column name, table context).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::fxhash::FxHashSet;

/// Identifier of a column inside a [`Repository`](crate::repository::Repository).
///
/// Stored as `u32` (not `usize`) to keep hot index structures small, per the
/// type-size guidance in the performance guide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnId(pub u32);

impl ColumnId {
    /// The id as an index into repository-ordered vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ColumnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "col#{}", self.0)
    }
}

/// Metadata accompanying a column, used by the column-to-text transformation
/// options of Table 1 in the paper.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColumnMeta {
    /// Title of the table the column was extracted from.
    pub table_title: String,
    /// Header / name of the column.
    pub column_name: String,
    /// Free-text context accompanying the table (e.g. a brief description).
    pub table_context: String,
    /// Index of the source table in the originating corpus, if known.
    pub table_id: Option<u32>,
}

/// A column: an ordered list of cell values plus metadata.
///
/// Order matters to the *encoder* (PLMs are order-sensitive; §4.1 discusses
/// cell-shuffle augmentation precisely because of this) but not to
/// *joinability* (Definitions 2.1 and 2.3 are set/multiset based).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    /// Cell values in their original order, duplicates preserved.
    pub cells: Vec<String>,
    /// Metadata used for contextualization.
    pub meta: ColumnMeta,
    /// Cached set of distinct cell values (lazily built).
    #[serde(skip)]
    distinct: OnceLock<FxHashSet<String>>,
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells && self.meta == other.meta
    }
}

impl Column {
    /// Create a column from cells and metadata.
    pub fn new(cells: Vec<String>, meta: ColumnMeta) -> Self {
        Self {
            cells,
            meta,
            distinct: OnceLock::new(),
        }
    }

    /// Create a column with default (empty) metadata — convenient in tests.
    pub fn from_cells<I, S>(cells: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::new(cells.into_iter().map(Into::into).collect(), ColumnMeta::default())
    }

    /// Number of cells including duplicates.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the column has no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The set of distinct cell values (built once, cached).
    pub fn distinct(&self) -> &FxHashSet<String> {
        self.distinct
            .get_or_init(|| self.cells.iter().cloned().collect())
    }

    /// Number of distinct cell values (`n` in the contextualization patterns).
    pub fn distinct_len(&self) -> usize {
        self.distinct().len()
    }

    /// Distinct cells in first-occurrence order. This is the order the
    /// column-to-text transformation concatenates (`col` pattern).
    pub fn distinct_in_order(&self) -> Vec<&str> {
        let mut seen: FxHashSet<&str> =
            FxHashSet::with_capacity_and_hasher(self.cells.len(), Default::default());
        let mut out = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            if seen.insert(c.as_str()) {
                out.push(c.as_str());
            }
        }
        out
    }

    /// Word-count statistics over cells: `(max, min, avg)` numbers of
    /// whitespace-separated words per cell, as used by the `stat`
    /// contextualization patterns. Returns `(0, 0, 0.0)` for empty columns.
    pub fn word_stats(&self) -> (usize, usize, f64) {
        if self.cells.is_empty() {
            return (0, 0, 0.0);
        }
        let mut max = 0usize;
        let mut min = usize::MAX;
        let mut total = 0usize;
        for cell in &self.cells {
            let words = cell.split_whitespace().count();
            max = max.max(words);
            min = min.min(words);
            total += words;
        }
        (max, min, total as f64 / self.cells.len() as f64)
    }

    /// A copy of the column with cells permuted according to `perm` (used by
    /// the shuffle data augmentation). `perm` must be a permutation of
    /// `0..self.len()`.
    pub fn permuted(&self, perm: &[usize]) -> Column {
        debug_assert_eq!(perm.len(), self.cells.len());
        let cells = perm.iter().map(|&i| self.cells[i].clone()).collect();
        Column::new(cells, self.meta.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(cells: &[&str]) -> Column {
        Column::from_cells(cells.iter().copied())
    }

    #[test]
    fn distinct_dedupes() {
        let c = col(&["a", "b", "a", "c", "b"]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.distinct_len(), 3);
        assert!(c.distinct().contains("a"));
        assert!(!c.distinct().contains("z"));
    }

    #[test]
    fn distinct_in_order_preserves_first_occurrence() {
        let c = col(&["b", "a", "b", "c", "a"]);
        assert_eq!(c.distinct_in_order(), vec!["b", "a", "c"]);
    }

    #[test]
    fn word_stats_counts_words() {
        let c = col(&["new york", "tokyo", "rio de janeiro"]);
        let (max, min, avg) = c.word_stats();
        assert_eq!(max, 3);
        assert_eq!(min, 1);
        assert!((avg - 2.0).abs() < 1e-9);
    }

    #[test]
    fn word_stats_empty() {
        let c = col(&[]);
        assert_eq!(c.word_stats(), (0, 0, 0.0));
    }

    #[test]
    fn permuted_reorders_cells_only() {
        let meta = ColumnMeta {
            column_name: "city".into(),
            ..ColumnMeta::default()
        };
        let c = Column::new(vec!["a".into(), "b".into(), "c".into()], meta.clone());
        let p = c.permuted(&[2, 0, 1]);
        assert_eq!(p.cells, vec!["c", "a", "b"]);
        assert_eq!(p.meta, meta);
        // Joinability-relevant content unchanged:
        assert_eq!(p.distinct(), c.distinct());
    }

    #[test]
    fn column_id_display_and_index() {
        let id = ColumnId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "col#7");
    }
}
