//! Dense per-layout interning of cache lines.
//!
//! The simulator's hot loops — frontend bookkeeping, cache tag matching,
//! policy metadata, the ideal policies' future index — all key state by
//! cache line. Keying by [`LineAddr`] forces a 64-bit hash per touch; this
//! module instead assigns every line reachable from one [`Layout`] a dense
//! [`LineId`] so that state becomes plain `Vec` indexing.
//!
//! The text segment is laid out contiguously from a single base, so
//! interning is pure arithmetic: `id = line_index - first_line_index`. The
//! [`LineTable`] spans one line past the end of the text segment so the
//! next-line prefetch target of the last code line interns too.
//!
//! Interning is **per-layout**: a rewritten or injected program gets a new
//! layout and must get a fresh `LineTable`/[`FetchPlan`]. Ids from
//! different tables are not comparable; [`LineAddr`] remains the boundary
//! type everywhere results leave the simulator (sinks, stats, analysis).

use ripple_program::{BlockId, InstKind, Layout, LineAddr, Program};

/// Dense index of a cache line within one layout's [`LineTable`].
///
/// `LineId`s are only meaningful relative to the table that produced them;
/// convert back with [`LineTable::line`] before crossing an API boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineId(u32);

impl LineId {
    /// Sentinel used by cache ways for "no line" (never a valid id:
    /// [`LineTable::build`] rejects layouts spanning `u32::MAX` lines).
    pub const INVALID: LineId = LineId(u32::MAX);

    /// Creates an id from a raw dense index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        LineId(raw)
    }

    /// The raw dense index.
    #[inline]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The raw index as a `usize`, for `Vec` indexing.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The id of the line immediately following this one in the address
    /// space (next-line prefetch target).
    #[inline]
    pub const fn next(self) -> Self {
        LineId(self.0 + 1)
    }
}

impl std::fmt::Display for LineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Bidirectional map between the [`LineAddr`]s of one layout's text segment
/// and dense [`LineId`]s.
///
/// # Examples
///
/// ```
/// use ripple_program::{CodeKind, Instruction, Layout, LayoutConfig, ProgramBuilder};
/// use ripple_sim::LineTable;
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_function("main", CodeKind::Static);
/// let bb = b.add_block(main);
/// b.push_inst(bb, Instruction::other(100));
/// b.push_inst(bb, Instruction::ret());
/// let program = b.finish(main)?;
/// let layout = Layout::new(&program, &LayoutConfig::default());
///
/// let table = LineTable::build(&layout);
/// let line = layout.lines_of_block(bb).next().unwrap();
/// let id = table.lookup(line).unwrap();
/// assert_eq!(table.line(id), line);
/// # Ok::<(), ripple_program::ValidateProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineTable {
    /// Raw line index interned as `LineId(0)`.
    first: u64,
    /// Number of interned lines (text span plus one margin line).
    len: u32,
}

impl LineTable {
    /// Interns every line of `layout`'s text segment, plus one margin line
    /// past the end so next-line prefetches off the last code line resolve.
    ///
    /// # Panics
    ///
    /// Panics if the text segment spans 2^32 − 1 lines or more (a 256 GiB
    /// text section — far beyond anything the workloads generate).
    pub fn build(layout: &Layout) -> Self {
        match layout.line_bounds() {
            Some((first, last)) => {
                let span = last.index() - first.index() + 2;
                assert!(
                    span < u64::from(u32::MAX),
                    "text segment too large to intern"
                );
                LineTable {
                    first: first.index(),
                    len: span as u32,
                }
            }
            None => LineTable { first: 0, len: 0 },
        }
    }

    /// A table interning line indexes `0..len` as themselves, for tests
    /// where ids must equal raw line indexes.
    pub fn identity(len: u32) -> Self {
        LineTable { first: 0, len }
    }

    /// Number of interned lines (including the one-line prefetch margin).
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the table interns no lines (layout without code bytes).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw line index of `LineId(0)`; cache set mapping adds this base back
    /// so `set_of(line(id))` is preserved under interning.
    pub fn line_base(&self) -> u64 {
        self.first
    }

    /// The dense id of `line`, or `None` when the line lies outside the
    /// layout's text segment.
    ///
    /// Out-of-segment lines can never be fetched, so callers treat them as
    /// never-resident (e.g. a scripted invalidation of one is a miss).
    #[inline]
    pub fn lookup(&self, line: LineAddr) -> Option<LineId> {
        let off = line.index().wrapping_sub(self.first);
        if off < u64::from(self.len) {
            Some(LineId(off as u32))
        } else {
            None
        }
    }

    /// The address interned as `id`.
    #[inline]
    pub fn line(&self, id: LineId) -> LineAddr {
        debug_assert!(id.0 < self.len, "id {id} outside table");
        LineAddr::new(self.first + u64::from(id.0))
    }
}

/// Precomputed demand-fetch footprint of every block: `BlockId → &[LineId]`,
/// resolved once per session instead of via [`Layout::lines_of_block`] on
/// every trace step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchPlan {
    /// Concatenated per-block line lists, in fetch order.
    ids: Vec<LineId>,
    /// `num_blocks + 1` offsets into `ids`.
    bounds: Vec<u32>,
}

impl FetchPlan {
    /// Resolves every block of `program` under `layout` against `table`.
    ///
    /// # Panics
    ///
    /// Panics if a block touches a line outside `table` (the table was
    /// built from a different layout).
    // The panics are the documented contract for a table built from a
    // different layout; `LineTable::build` over the same layout covers
    // every block line, and a >4 GiB-entry plan is out of scope by far.
    #[allow(clippy::expect_used)]
    pub fn build(program: &Program, layout: &Layout, table: &LineTable) -> Self {
        let n = program.num_blocks();
        let mut ids = Vec::new();
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0u32);
        for i in 0..n {
            let block = BlockId::new(i as u32);
            for line in layout.lines_of_block(block) {
                let id = table
                    .lookup(line)
                    .expect("every block line is interned by its layout's table");
                ids.push(id);
            }
            let end = u32::try_from(ids.len()).expect("fetch plan exceeds u32 entries");
            bounds.push(end);
        }
        FetchPlan { ids, bounds }
    }

    /// The interned lines of `block`, in fetch order.
    #[inline]
    pub fn lines_of(&self, block: BlockId) -> &[LineId] {
        let i = block.index();
        &self.ids[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }
}

/// Per-block facts every simulation pass reads at each trace step,
/// flattened once per session so the hot loops never dereference a
/// `Block`: instruction counts and the interned operands of injected
/// `invalidate` instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BlockTable {
    /// Original (non-injected) instruction count per block.
    instructions: Vec<u32>,
    /// Injected-prefix length per block.
    injected: Vec<u32>,
    /// Interned operand of every injected `invalidate`, in
    /// block-id-then-prefix order; [`LineId::INVALID`] marks an operand
    /// outside the text segment (never resident, executes as a miss).
    inval_ids: Vec<u32>,
    /// `num_blocks + 1` offsets into `inval_ids`.
    inval_bounds: Vec<u32>,
}

impl BlockTable {
    // The expect is the same > 4 Gi capacity backstop as `FetchPlan::build`.
    #[allow(clippy::expect_used)]
    pub(crate) fn build(program: &Program, table: &LineTable) -> Self {
        let n = program.num_blocks();
        let mut instructions = Vec::with_capacity(n);
        let mut injected = Vec::with_capacity(n);
        let mut inval_ids = Vec::new();
        let mut inval_bounds = Vec::with_capacity(n + 1);
        inval_bounds.push(0u32);
        for block in program.blocks() {
            instructions.push(block.original_instructions().len() as u32);
            injected.push(block.injected_prefix_len());
            for inst in &block.instructions()[..block.injected_prefix_len() as usize] {
                if let InstKind::Invalidate { line } = inst.kind() {
                    inval_ids.push(
                        table
                            .lookup(line)
                            .map_or(LineId::INVALID.get(), LineId::get),
                    );
                }
            }
            inval_bounds
                .push(u32::try_from(inval_ids.len()).expect("invalidate plan exceeds u32 entries"));
        }
        BlockTable {
            instructions,
            injected,
            inval_ids,
            inval_bounds,
        }
    }

    /// The original instruction count of `block`.
    #[inline]
    pub(crate) fn instructions(&self, block: BlockId) -> u32 {
        self.instructions[block.index()]
    }

    /// The injected-prefix length of `block`.
    #[inline]
    pub(crate) fn injected(&self, block: BlockId) -> u32 {
        self.injected[block.index()]
    }

    /// The injected-invalidate operands of `block` (raw ids).
    #[inline]
    pub(crate) fn inval_ops(&self, block: BlockId) -> &[u32] {
        let i = block.index();
        &self.inval_ids[self.inval_bounds[i] as usize..self.inval_bounds[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripple_program::{CodeKind, Instruction, LayoutConfig, ProgramBuilder};

    fn sample() -> (Program, Layout) {
        let mut b = ProgramBuilder::new();
        let f0 = b.add_function("f0", CodeKind::Static);
        let bb0 = b.add_block(f0);
        b.push_inst(bb0, Instruction::other(100));
        b.push_inst(bb0, Instruction::ret());
        let f1 = b.add_function("f1", CodeKind::Static);
        let bb1 = b.add_block(f1);
        b.push_inst(bb1, Instruction::other(30));
        b.push_inst(bb1, Instruction::ret());
        let p = b.finish(f0).unwrap();
        let l = Layout::new(&p, &LayoutConfig::default());
        (p, l)
    }

    #[test]
    fn roundtrips_every_block_line() {
        let (p, l) = sample();
        let table = LineTable::build(&l);
        for i in 0..p.num_blocks() {
            for line in l.lines_of_block(BlockId::new(i as u32)) {
                let id = table.lookup(line).expect("block line interned");
                assert_eq!(table.line(id), line);
            }
        }
    }

    #[test]
    fn unmapped_addresses_fall_back_to_none() {
        let (_, l) = sample();
        let table = LineTable::build(&l);
        // Below the text segment (the zero page) and far above it: both are
        // unmapped and must intern to nothing rather than alias a real id.
        assert_eq!(table.lookup(LineAddr::new(0)), None);
        assert_eq!(table.lookup(LineAddr::new(u64::MAX / 64)), None);
        let (first, last) = l.line_bounds().unwrap();
        assert_eq!(table.lookup(LineAddr::new(first.index() - 1)), None);
        // One line past the end is the prefetch margin and *is* mapped;
        // two lines past is not.
        assert!(table.lookup(last.next()).is_some());
        assert_eq!(table.lookup(last.next().next()), None);
    }

    #[test]
    fn next_line_prefetch_targets_stay_in_table() {
        let (p, l) = sample();
        let table = LineTable::build(&l);
        for i in 0..p.num_blocks() {
            for line in l.lines_of_block(BlockId::new(i as u32)) {
                let id = table.lookup(line).unwrap();
                assert!(id.next().get() < table.len(), "margin line missing");
                assert_eq!(table.line(id.next()), line.next());
            }
        }
    }

    #[test]
    fn fetch_plan_matches_layout_enumeration() {
        // The original layout, and a relinked one with an injected prefix.
        let (p0, l0) = sample();
        let mut inject = ripple_program::InjectionPlan::new();
        inject.push(ripple_program::Injection {
            cue: BlockId::new(0),
            victim: ripple_program::CodeLoc::new(BlockId::new(1), 0),
        });
        let rw = ripple_program::rewrite(&p0, &l0, &inject);
        assert_ne!(rw.layout, l0);
        for (p, l) in [(&p0, &l0), (&rw.program, &rw.layout)] {
            let table = LineTable::build(l);
            let plan = FetchPlan::build(p, l, &table);
            for i in 0..p.num_blocks() {
                let block = BlockId::new(i as u32);
                let from_plan: Vec<LineAddr> = plan
                    .lines_of(block)
                    .iter()
                    .map(|&id| table.line(id))
                    .collect();
                let from_layout: Vec<LineAddr> = l.lines_of_block(block).collect();
                assert_eq!(from_plan, from_layout);
            }
        }
    }

    #[test]
    fn identity_table_is_the_identity() {
        let table = LineTable::identity(16);
        assert_eq!(table.line_base(), 0);
        let id = table.lookup(LineAddr::new(5)).unwrap();
        assert_eq!(id, LineId::new(5));
        assert_eq!(table.line(id), LineAddr::new(5));
        assert_eq!(table.lookup(LineAddr::new(16)), None);
    }

    #[test]
    fn empty_layout_interns_nothing() {
        let table = LineTable { first: 0, len: 0 };
        assert!(table.is_empty());
        assert_eq!(table.lookup(LineAddr::new(0)), None);
    }
}
