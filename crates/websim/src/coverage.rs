//! Server-side line-coverage instrumentation.
//!
//! The paper measures crawler quality as the number of server-side lines of
//! code executed, collected with Xdebug for PHP applications and
//! coverage-node for Node.js applications (§V-A.3). This module is the
//! simulator's analog: applications declare *source files* with line counts,
//! handlers record executed *blocks* (contiguous line ranges), and a
//! [`CoverageTracker`] accumulates per-line hit sets.
//!
//! Two observation modes mirror the two tools:
//!
//! - [`CoverageMode::Live`] (Xdebug): covered-line counts can be queried at
//!   any time during the run — this is what makes Fig. 2's
//!   coverage-over-time curves possible;
//! - [`CoverageMode::Final`] (coverage-node): counts are only available once
//!   the run is [sealed](CoverageTracker::seal), and the tool additionally
//!   reports the total number of lines (used as ground truth in Table II).

use std::fmt;

/// Identifies a declared source file within a [`CodeModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub(crate) u32);

impl FileId {
    /// The dense declaration index of the file within its [`CodeModel`],
    /// usable as a compact key in measurement-side data structures.
    pub fn index(self) -> u32 {
        self.0
    }
}

/// A contiguous range of lines inside one file, recorded atomically by a
/// handler — the unit of "server-side code executed".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Block {
    /// The file the block belongs to.
    pub file: FileId,
    /// First line of the block (1-based, inclusive).
    pub start: u32,
    /// Last line of the block (inclusive).
    pub end: u32,
}

impl Block {
    /// Number of lines in the block; 0 for an (invalid) empty block rather
    /// than a wrapped-around `u32`.
    pub fn len(&self) -> u32 {
        if self.is_empty() {
            0
        } else {
            self.end - self.start + 1
        }
    }

    /// Whether the block is empty (never true for validated blocks).
    pub fn is_empty(&self) -> bool {
        self.end < self.start
    }
}

/// Error returned when declaring or recording invalid coverage data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverageError {
    /// The block's file was never declared.
    UnknownFile(FileId),
    /// The block's line range exceeds the file's declared length.
    OutOfRange {
        /// Offending block.
        block: Block,
        /// Declared number of lines of the file.
        file_lines: u32,
    },
    /// Coverage was queried in [`CoverageMode::Final`] before sealing.
    NotSealed,
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::UnknownFile(id) => write!(f, "unknown file id {}", id.0),
            CoverageError::OutOfRange { block, file_lines } => write!(
                f,
                "block {}..={} exceeds file of {} lines",
                block.start, block.end, file_lines
            ),
            CoverageError::NotSealed => {
                write!(f, "final-mode coverage queried before the run was sealed")
            }
        }
    }
}

impl std::error::Error for CoverageError {}

/// Static description of an application's server-side code: its files and
/// their sizes. Shared by all runs of the same application.
#[derive(Debug, Clone, Default)]
pub struct CodeModel {
    files: Vec<FileDecl>,
}

#[derive(Debug, Clone)]
struct FileDecl {
    name: String,
    lines: u32,
}

impl CodeModel {
    /// Creates an empty code model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a source file with `lines` lines and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero — empty source files cannot hold blocks.
    pub fn declare_file(&mut self, name: impl Into<String>, lines: u32) -> FileId {
        assert!(lines > 0, "source files must have at least one line");
        let id = FileId(self.files.len() as u32);
        self.files.push(FileDecl { name: name.into(), lines });
        id
    }

    /// Number of declared files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Looks up a declared file by name.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        self.files.iter().position(|f| f.name == name).map(|i| FileId(i as u32))
    }

    /// The declared name of `file`.
    pub fn file_name(&self, file: FileId) -> Option<&str> {
        self.files.get(file.0 as usize).map(|f| f.name.as_str())
    }

    /// The declared length of `file` in lines.
    pub fn file_lines(&self, file: FileId) -> Option<u32> {
        self.files.get(file.0 as usize).map(|f| f.lines)
    }

    /// Total declared lines across all files — what coverage-node reports as
    /// the denominator for Node.js applications.
    pub fn total_lines(&self) -> u64 {
        self.files.iter().map(|f| u64::from(f.lines)).sum()
    }

    /// Validates that `block` addresses declared lines.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError`] if the file is unknown or the range exceeds
    /// the declared file length.
    pub fn validate(&self, block: Block) -> Result<(), CoverageError> {
        let decl =
            self.files.get(block.file.0 as usize).ok_or(CoverageError::UnknownFile(block.file))?;
        if block.is_empty() || block.start == 0 || block.end > decl.lines {
            return Err(CoverageError::OutOfRange { block, file_lines: decl.lines });
        }
        Ok(())
    }
}

/// Whether coverage is observable during the run or only at its end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageMode {
    /// Xdebug-style: queryable at any point during execution.
    Live,
    /// coverage-node-style: only available after the application stops.
    Final,
}

/// Accumulates the set of executed lines over one run of one application.
#[derive(Debug, Clone)]
pub struct CoverageTracker {
    mode: CoverageMode,
    /// One bitmask vector per file; bit `i` = line `i+1` hit.
    hits: Vec<Vec<u64>>,
    /// Declared length of each file in lines. Clamping against this — not
    /// against the bitmask capacity, which is rounded up to a multiple of
    /// 64 — keeps undeclared trailing lines out of the covered count.
    file_lines: Vec<u32>,
    covered: u64,
    /// Hits that addressed an unknown file or lines outside the declared
    /// range. Sound app models never trigger this; the reachability audit
    /// asserts it stays zero.
    clamped: u64,
    sealed: bool,
}

impl CoverageTracker {
    /// Creates a tracker for `model` in the given mode.
    pub fn new(model: &CodeModel, mode: CoverageMode) -> Self {
        let hits =
            model.files.iter().map(|f| vec![0u64; (f.lines as usize).div_ceil(64)]).collect();
        let file_lines = model.files.iter().map(|f| f.lines).collect();
        CoverageTracker { mode, hits, file_lines, covered: 0, clamped: 0, sealed: false }
    }

    /// The observation mode.
    pub fn mode(&self) -> CoverageMode {
        self.mode
    }

    /// Records execution of `block`. Re-hitting lines is idempotent.
    ///
    /// Blocks are assumed validated against the [`CodeModel`] (the
    /// [`AppHost`](crate::server::AppHost) does this at registration time);
    /// out-of-range blocks are clamped defensively.
    pub fn hit(&mut self, block: Block) {
        let Some(mask) = self.hits.get_mut(block.file.0 as usize) else {
            self.clamped += 1;
            return;
        };
        let max_line = self.file_lines[block.file.0 as usize];
        if block.is_empty() || block.start == 0 || block.end > max_line {
            self.clamped += 1;
        }
        let start = block.start.max(1);
        let end = block.end.min(max_line);
        if start > end {
            return;
        }
        // Word-at-a-time: set every bit of the (inclusive, 1-based) line
        // range and count only the transitions via popcount. Same result as
        // a per-line loop, ~64x fewer iterations on block-sized ranges.
        let (lo, hi) = ((start - 1) as usize, (end - 1) as usize);
        for (idx, word) in mask.iter_mut().enumerate().take(hi / 64 + 1).skip(lo / 64) {
            let mut bits = !0u64;
            if idx == lo / 64 {
                bits &= !0u64 << (lo % 64);
            }
            if idx == hi / 64 {
                bits &= !0u64 >> (63 - hi % 64);
            }
            let fresh = bits & !*word;
            *word |= fresh;
            self.covered += u64::from(fresh.count_ones());
        }
    }

    /// Marks the run as finished, making final-mode counts observable.
    pub fn seal(&mut self) {
        self.sealed = true;
    }

    /// Whether [`seal`](Self::seal) has been called.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Covered-line count, honoring the observation mode.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::NotSealed`] in [`CoverageMode::Final`] before
    /// the run is sealed — exactly the limitation the paper reports for
    /// coverage-node (§V-A.3).
    pub fn observe_lines_covered(&self) -> Result<u64, CoverageError> {
        match self.mode {
            CoverageMode::Live => Ok(self.covered),
            CoverageMode::Final if self.sealed => Ok(self.covered),
            CoverageMode::Final => Err(CoverageError::NotSealed),
        }
    }

    /// Covered-line count regardless of mode — for the *measurement
    /// harness*, not for crawlers (crawlers are black-box and never see
    /// this; the harness uses it to build union ground truths).
    pub fn lines_covered_unchecked(&self) -> u64 {
        self.covered
    }

    /// Number of recorded blocks that had to be clamped (unknown file,
    /// empty range, or lines past the declared file length). A sound app
    /// model keeps this at zero — the reachability audit enforces it.
    pub fn clamped_hits(&self) -> u64 {
        self.clamped
    }

    /// The `(file, line)` pair of every covered line, ordered by file and
    /// then line, for union ground-truth estimation (§V-B).
    ///
    /// Walks only the set bits of each word (`trailing_zeros`, then clear
    /// the lowest bit): a plain loop, which measured ~5× faster than
    /// testing all 64 bits per word through nested adaptors, and faster
    /// than a hand-written iterator over the same walk.
    pub fn covered_lines(&self) -> Vec<(FileId, u32)> {
        let mut out = Vec::new();
        for (fi, mask) in self.hits.iter().enumerate() {
            for (wi, &word) in mask.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    out.push((FileId(fi as u32), wi as u32 * 64 + bits.trailing_zeros() + 1));
                    bits &= bits - 1;
                }
            }
        }
        out
    }

    /// Merges another tracker's hits into this one (union).
    ///
    /// # Panics
    ///
    /// Panics if the trackers were built from different code models.
    pub fn merge(&mut self, other: &CoverageTracker) {
        assert_eq!(self.hits.len(), other.hits.len(), "code models differ");
        self.clamped += other.clamped;
        for (mine, theirs) in self.hits.iter_mut().zip(&other.hits) {
            assert_eq!(mine.len(), theirs.len(), "code models differ");
            for (m, t) in mine.iter_mut().zip(theirs) {
                let newly = *t & !*m;
                self.covered += u64::from(newly.count_ones());
                *m |= *t;
            }
        }
    }
}

// Checkpoint serialization: every field is already deterministic (dense
// vectors, no maps), so the derive-style field order is enough.
impl serde::Serialize for CoverageTracker {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            (
                "mode".to_owned(),
                serde::Value::Str(
                    match self.mode {
                        CoverageMode::Live => "live",
                        CoverageMode::Final => "final",
                    }
                    .to_owned(),
                ),
            ),
            ("hits".to_owned(), self.hits.to_value()),
            ("file_lines".to_owned(), self.file_lines.to_value()),
            ("covered".to_owned(), serde::Value::UInt(self.covered)),
            ("clamped".to_owned(), serde::Value::UInt(self.clamped)),
            ("sealed".to_owned(), serde::Value::Bool(self.sealed)),
        ])
    }
}

impl serde::Deserialize for CoverageTracker {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let serde::Value::Object(entries) = value else {
            return Err(serde::Error::custom("expected CoverageTracker object"));
        };
        let mode: String = serde::__field(entries, "mode")?;
        let mode = match mode.as_str() {
            "live" => CoverageMode::Live,
            "final" => CoverageMode::Final,
            _ => return Err(serde::Error::custom("unknown coverage mode")),
        };
        let hits: Vec<Vec<u64>> = serde::__field(entries, "hits")?;
        let file_lines: Vec<u32> = serde::__field(entries, "file_lines")?;
        if hits.len() != file_lines.len() {
            return Err(serde::Error::custom("coverage bitmask/file-length shape mismatch"));
        }
        Ok(CoverageTracker {
            mode,
            hits,
            file_lines,
            covered: serde::__field(entries, "covered")?,
            clamped: serde::__field(entries, "clamped")?,
            sealed: serde::__field(entries, "sealed")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (CodeModel, FileId, FileId) {
        let mut m = CodeModel::new();
        let a = m.declare_file("index.php", 100);
        let b = m.declare_file("lib/db.php", 70);
        (m, a, b)
    }

    #[test]
    fn declares_and_totals() {
        let (m, a, b) = model();
        assert_eq!(m.file_count(), 2);
        assert_eq!(m.total_lines(), 170);
        assert_eq!(m.file_name(a), Some("index.php"));
        assert_eq!(m.file_lines(b), Some(70));
    }

    #[test]
    fn validate_rejects_bad_blocks() {
        let (m, a, _) = model();
        assert!(m.validate(Block { file: a, start: 1, end: 100 }).is_ok());
        assert!(m.validate(Block { file: a, start: 0, end: 5 }).is_err());
        assert!(m.validate(Block { file: a, start: 50, end: 101 }).is_err());
        assert!(m.validate(Block { file: FileId(9), start: 1, end: 1 }).is_err());
        assert!(m.validate(Block { file: a, start: 5, end: 4 }).is_err());
    }

    #[test]
    fn hits_are_idempotent() {
        let (m, a, _) = model();
        let mut t = CoverageTracker::new(&m, CoverageMode::Live);
        t.hit(Block { file: a, start: 10, end: 19 });
        assert_eq!(t.observe_lines_covered().unwrap(), 10);
        t.hit(Block { file: a, start: 10, end: 19 });
        assert_eq!(t.observe_lines_covered().unwrap(), 10);
        t.hit(Block { file: a, start: 15, end: 24 });
        assert_eq!(t.observe_lines_covered().unwrap(), 15);
    }

    #[test]
    fn final_mode_hides_counts_until_sealed() {
        let (m, a, _) = model();
        let mut t = CoverageTracker::new(&m, CoverageMode::Final);
        t.hit(Block { file: a, start: 1, end: 5 });
        assert_eq!(t.observe_lines_covered(), Err(CoverageError::NotSealed));
        t.seal();
        assert_eq!(t.observe_lines_covered(), Ok(5));
    }

    #[test]
    fn covered_lines_enumerates_exactly_hits() {
        let (m, a, b) = model();
        let mut t = CoverageTracker::new(&m, CoverageMode::Live);
        t.hit(Block { file: a, start: 64, end: 66 });
        t.hit(Block { file: b, start: 1, end: 1 });
        assert_eq!(t.covered_lines(), vec![(a, 64), (a, 65), (a, 66), (b, 1)]);
    }

    #[test]
    fn covered_lines_match_the_per_line_definition_on_random_masks() {
        // Files that end just before, on and just after word boundaries.
        let lens = [1u32, 63, 64, 65, 128, 129, 200];
        let mut m = CodeModel::new();
        let files: Vec<FileId> =
            lens.iter().enumerate().map(|(i, &n)| m.declare_file(format!("f{i}"), n)).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u32| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % u64::from(bound)) as u32
        };
        for trial in 0..300 {
            let mut t = CoverageTracker::new(&m, CoverageMode::Live);
            let mut expected = std::collections::BTreeSet::new();
            for (&file, &len) in files.iter().zip(&lens) {
                let mut blocks: Vec<(u32, u32)> = (0..next(5))
                    .map(|_| {
                        let start = 1 + next(len);
                        (start, (start + next(70)).min(len))
                    })
                    .collect();
                // Lines 64 and 65 straddle the first word boundary.
                if trial % 2 == 0 && len >= 65 {
                    blocks.push((64, 64));
                    blocks.push((65, 65));
                }
                if trial % 3 == 0 {
                    blocks.push((len, len));
                }
                for (start, end) in blocks {
                    t.hit(Block { file, start, end });
                    expected.extend((start..=end).map(|line| (file, line)));
                }
            }
            let lines = t.covered_lines();
            assert_eq!(lines, expected.into_iter().collect::<Vec<_>>(), "trial {trial}");
            assert_eq!(lines.len() as u64, t.lines_covered_unchecked());
        }
    }

    #[test]
    fn merge_unions_without_double_counting() {
        let (m, a, b) = model();
        let mut t1 = CoverageTracker::new(&m, CoverageMode::Live);
        let mut t2 = CoverageTracker::new(&m, CoverageMode::Live);
        t1.hit(Block { file: a, start: 1, end: 10 });
        t2.hit(Block { file: a, start: 6, end: 15 });
        t2.hit(Block { file: b, start: 1, end: 5 });
        t1.merge(&t2);
        assert_eq!(t1.lines_covered_unchecked(), 20);
    }

    #[test]
    fn out_of_range_hit_is_clamped() {
        let mut m = CodeModel::new();
        let a = m.declare_file("f", 10);
        let mut t = CoverageTracker::new(&m, CoverageMode::Live);
        t.hit(Block { file: a, start: 1, end: 1000 });
        // Clamped to the *declared* file length, not the bitmask capacity
        // (one 64-line word here): exactly the 10 declared lines count.
        assert_eq!(t.lines_covered_unchecked(), 10);
        t.hit(Block { file: a, start: 11, end: 1000 });
        assert_eq!(t.lines_covered_unchecked(), 10, "fully out-of-range block adds nothing");
        t.hit(Block { file: FileId(42), start: 1, end: 5 });
        assert_eq!(t.lines_covered_unchecked(), 10, "unknown file adds nothing");
    }

    #[test]
    fn block_len() {
        let b = Block { file: FileId(0), start: 5, end: 9 };
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        let single = Block { file: FileId(0), start: 7, end: 7 };
        assert_eq!(single.len(), 1);
        let empty = Block { file: FileId(0), start: 9, end: 5 };
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0, "empty block has zero lines, not a wrapped u32");
    }
}
