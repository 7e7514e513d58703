//! The linker: assigns byte addresses to every basic block.
//!
//! Layout matters twice in the Ripple pipeline. First, it determines which
//! cache lines each basic block touches, which drives the whole I-cache
//! simulation. Second, injecting invalidation instructions grows blocks and
//! shifts every subsequent address — the "static and dynamic code bloat"
//! the paper charges against Ripple — so the same program is laid out twice
//! (before and after rewriting) and results are translated between the two
//! layouts by a [`LineMapper`](crate::LineMapper).

use crate::addr::{lines_spanning, Addr, LineAddr, LineSpan};
use crate::block::BasicBlock;
use crate::ids::{BlockId, CodeLoc};
use crate::program::Program;

/// Linker parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutConfig {
    /// Base address of the text segment.
    pub base_addr: Addr,
    /// Alignment of function entries (power of two).
    pub function_align: u64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            base_addr: Addr::new(0x0040_0000),
            // Cache-line-aligned function entries, as post-link optimizers
            // (BOLT, Propeller) emit for hot data center code. This also
            // confines injection-induced address shifts to the function
            // being rewritten, keeping the profile valid for the rest of
            // the binary.
            function_align: 64,
        }
    }
}

/// Address assignment for every block of a [`Program`].
///
/// # Examples
///
/// ```
/// use ripple_program::{CodeKind, Instruction, Layout, LayoutConfig, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new();
/// let main = b.add_function("main", CodeKind::Static);
/// let bb = b.add_block(main);
/// b.push_inst(bb, Instruction::other(4));
/// b.push_inst(bb, Instruction::ret());
/// let program = b.finish(main)?;
///
/// let layout = Layout::new(&program, &LayoutConfig::default());
/// assert_eq!(layout.block_addr(bb), LayoutConfig::default().base_addr);
/// assert_eq!(layout.lines_of_block(bb).count(), 1);
/// # Ok::<(), ripple_program::ValidateProgramError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    config: LayoutConfig,
    block_addr: Vec<Addr>,
    block_size: Vec<u32>,
    /// Byte size of each block's injected invalidation prefix (so code
    /// locations expressed against original instructions can be resolved).
    block_prefix: Vec<u32>,
    end: Addr,
    /// Block indices in ascending address order, ties in layout order.
    /// Built by the constructors so that address lookups never sort.
    by_addr: Vec<u32>,
    /// The lines any block touches, found once by the constructors.
    lines: LineRange,
}

/// A layout's text lines as a dense index space: slot `i` holds line
/// `first + i`.
///
/// Per-line tables over one layout ([`LineMapper`](crate::LineMapper),
/// [`LineOrigins`](crate::LineOrigins), the core crate's access index and
/// profile counts) are plain vectors indexed by slot instead of hash maps
/// keyed by [`LineAddr`]. The range is empty for a program without code
/// bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LineRange {
    first: u64,
    len: usize,
}

impl LineRange {
    /// Number of lines (slots) in the range.
    #[inline]
    pub fn len(self) -> usize {
        self.len
    }

    /// Whether the range holds no line.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The slot of `line`, or `None` when it lies outside the range.
    #[inline]
    pub fn slot(self, line: LineAddr) -> Option<usize> {
        let i = line.index().wrapping_sub(self.first);
        (i < self.len as u64).then_some(i as usize)
    }

    /// The slot of a line known to lie in the range, such as any line a
    /// block of the layout touches: equal to [`LineRange::slot`] there.
    /// For a line outside the range it is at least `len`, so indexing a
    /// table with it fails its bounds check.
    #[inline]
    pub fn offset(self, line: LineAddr) -> usize {
        line.index().wrapping_sub(self.first) as usize
    }

    /// The line held by `slot` (`slot < len`).
    #[inline]
    pub fn line(self, slot: usize) -> LineAddr {
        LineAddr::new(self.first + slot as u64)
    }
}

impl Layout {
    /// Lays out `program` according to `config`.
    ///
    /// Functions are placed in id order at `function_align` boundaries;
    /// blocks are packed back-to-back inside each function, mirroring how a
    /// real linker emits a text section.
    pub fn new(program: &Program, config: &LayoutConfig) -> Self {
        Self::place(program, config, |block| {
            (block.size_bytes(), block.injected_prefix_bytes())
        })
    }

    /// [`Layout::new`] with each block's encoded size and injected-prefix
    /// bytes taken from `measure`, which may read them from an earlier
    /// layout of the same blocks instead of summing their instructions.
    pub(crate) fn place(
        program: &Program,
        config: &LayoutConfig,
        mut measure: impl FnMut(&BasicBlock) -> (u32, u32),
    ) -> Self {
        let mut block_addr = vec![Addr::new(0); program.num_blocks()];
        let mut block_size = vec![0u32; program.num_blocks()];
        let mut block_prefix = vec![0u32; program.num_blocks()];
        let mut visited = Vec::with_capacity(program.num_blocks());
        let mut cursor = config.base_addr;
        for func in program.functions() {
            cursor = cursor.align_up(config.function_align);
            for &bid in func.blocks() {
                let (size, prefix) = measure(program.block(bid));
                block_addr[bid.index()] = cursor;
                block_size[bid.index()] = size;
                block_prefix[bid.index()] = prefix;
                visited.push(bid.index() as u32);
                cursor = cursor.wrapping_add(u64::from(size));
            }
        }
        Layout {
            config: *config,
            by_addr: address_order(&block_addr, visited),
            lines: line_range(&block_addr, &block_size),
            block_addr,
            block_size,
            block_prefix,
            end: cursor,
        }
    }

    /// Bytes of `id`'s injected prefix in this layout.
    pub(crate) fn prefix_bytes(&self, id: BlockId) -> u32 {
        self.block_prefix[id.index()]
    }

    /// The configuration this layout was produced with.
    #[inline]
    pub fn config(&self) -> &LayoutConfig {
        &self.config
    }

    /// Number of blocks laid out (the program's block count).
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.block_addr.len()
    }

    /// Start address of a block.
    #[inline]
    pub fn block_addr(&self, id: BlockId) -> Addr {
        self.block_addr[id.index()]
    }

    /// Encoded size of a block in this layout.
    #[inline]
    pub fn block_size(&self, id: BlockId) -> u32 {
        self.block_size[id.index()]
    }

    /// One-past-the-end address of a block.
    #[inline]
    pub fn block_end(&self, id: BlockId) -> Addr {
        self.block_addr(id)
            .wrapping_add(u64::from(self.block_size(id)))
    }

    /// One-past-the-end address of the whole text segment.
    #[inline]
    pub fn end(&self) -> Addr {
        self.end
    }

    /// Total code bytes laid out (excluding alignment padding).
    pub fn code_bytes(&self) -> u64 {
        self.block_size.iter().map(|&s| u64::from(s)).sum()
    }

    /// Every cache line a block's instruction bytes touch, in fetch order.
    #[inline]
    pub fn lines_of_block(&self, id: BlockId) -> LineSpan {
        lines_spanning(self.block_addr(id), u64::from(self.block_size(id)))
    }

    /// Number of distinct cache lines in the text segment (static
    /// instruction footprint).
    pub fn footprint_lines(&self) -> u64 {
        let mut count = 0u64;
        let mut last: Option<LineAddr> = None;
        // A scan in address order with dedup against the previous line
        // suffices.
        for &i in &self.by_addr {
            let i = i as usize;
            for line in lines_spanning(self.block_addr[i], u64::from(self.block_size[i])) {
                if last != Some(line) {
                    count += 1;
                    last = Some(line);
                }
            }
        }
        count
    }

    /// The first and last cache line of the text segment, or `None` when
    /// the program has no code bytes.
    ///
    /// Every line any block touches falls inside this inclusive range; the
    /// simulator's line interner builds its dense table from it.
    pub fn line_bounds(&self) -> Option<(LineAddr, LineAddr)> {
        let lines = self.lines;
        (!lines.is_empty()).then(|| (lines.line(0), lines.line(lines.len() - 1)))
    }

    /// [`Layout::line_bounds`] as a dense index space for per-line tables.
    #[inline]
    pub fn line_range(&self) -> LineRange {
        self.lines
    }

    /// Resolves a [`CodeLoc`] (block + offset into *original* instruction
    /// bytes) to a byte address in this layout, skipping any injected
    /// invalidation prefix.
    #[inline]
    pub fn addr_of(&self, loc: CodeLoc) -> Addr {
        self.block_addr(loc.block)
            .wrapping_add(u64::from(self.block_prefix[loc.block.index()]))
            .wrapping_add(u64::from(loc.offset))
    }

    /// Resolves a [`CodeLoc`] to the cache line holding that byte.
    #[inline]
    pub fn line_of(&self, loc: CodeLoc) -> LineAddr {
        self.addr_of(loc).line()
    }

    /// Finds the block containing byte address `addr`, if any, along with
    /// the offset into the block's *original* bytes.
    ///
    /// Bytes within an injected prefix report offset 0 of the same block.
    pub fn loc_of_addr(&self, addr: Addr) -> Option<CodeLoc> {
        // Binary search over blocks sorted by address.
        let pos = self
            .by_addr
            .partition_point(|&i| self.block_addr[i as usize] <= addr);
        if pos == 0 {
            return None;
        }
        let i = self.by_addr[pos - 1] as usize;
        let start = self.block_addr[i];
        let size = u64::from(self.block_size[i]);
        if addr.get() >= start.get() + size {
            return None;
        }
        let prefix = u64::from(self.block_prefix[i]);
        let raw_off = addr.get() - start.get();
        let offset = raw_off.saturating_sub(prefix) as u32;
        Some(CodeLoc::new(BlockId::new(i as u32), offset))
    }
}

/// The lines touched by blocks of the given addresses and sizes: from the
/// lowest block start to the highest block end, skipping empty blocks.
fn line_range(block_addr: &[Addr], block_size: &[u32]) -> LineRange {
    let mut first: Option<Addr> = None;
    let mut last_end: Option<Addr> = None;
    for (&start, &size) in block_addr.iter().zip(block_size) {
        if size == 0 {
            continue;
        }
        let end = start.wrapping_add(u64::from(size));
        first = Some(first.map_or(start, |f| f.min(start)));
        last_end = Some(last_end.map_or(end, |l| l.max(end)));
    }
    let (Some(first), Some(last_end)) = (first, last_end) else {
        return LineRange::default();
    };
    let (first, last) = (first.line(), Addr::new(last_end.get() - 1).line());
    LineRange {
        first: first.index(),
        len: (last.index() - first.index() + 1) as usize,
    }
}

/// Block indices in ascending address order, from the order `Layout::place`
/// `visited` them in. The layout cursor only grows, so that order is
/// already sorted unless the text segment wrapped the address space or a
/// block belongs to no function; only then does this sort.
fn address_order(block_addr: &[Addr], visited: Vec<u32>) -> Vec<u32> {
    let sorted = visited.len() == block_addr.len()
        && visited
            .windows(2)
            .all(|w| block_addr[w[0] as usize] <= block_addr[w[1] as usize]);
    if sorted {
        return visited;
    }
    let mut order: Vec<u32> = (0..block_addr.len() as u32).collect();
    order.sort_by_key(|&i| block_addr[i as usize]);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::CodeKind;
    use crate::inst::Instruction;
    use crate::program::ProgramBuilder;

    fn program_with_sizes(sizes: &[&[u8]]) -> Program {
        // One function per slice; each inner slice lists per-block byte
        // sizes (last instruction replaced by a 1-byte ret in final block).
        let mut b = ProgramBuilder::new();
        let mut entry = None;
        for (fi, blocks) in sizes.iter().enumerate() {
            let f = b.add_function(format!("f{fi}"), CodeKind::Static);
            entry.get_or_insert(f);
            let n = blocks.len();
            for (bi, &sz) in blocks.iter().enumerate() {
                let blk = b.add_block(f);
                if bi + 1 == n {
                    if sz > 1 {
                        b.push_inst(blk, Instruction::other(sz - 1));
                    }
                    b.push_inst(blk, Instruction::ret());
                } else {
                    b.push_inst(blk, Instruction::other(sz));
                }
            }
        }
        b.finish(entry.unwrap()).unwrap()
    }

    #[test]
    fn blocks_are_packed_contiguously() {
        let p = program_with_sizes(&[&[10, 20, 5]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let base = LayoutConfig::default().base_addr;
        assert_eq!(l.block_addr(BlockId::new(0)), base);
        assert_eq!(l.block_addr(BlockId::new(1)), base.wrapping_add(10));
        assert_eq!(l.block_addr(BlockId::new(2)), base.wrapping_add(30));
        assert_eq!(l.end(), base.wrapping_add(35));
        assert_eq!(l.code_bytes(), 35);
    }

    #[test]
    fn functions_are_aligned() {
        let p = program_with_sizes(&[&[10], &[10]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let f1_addr = l.block_addr(BlockId::new(1));
        assert_eq!(f1_addr.get() % 16, 0);
        assert!(f1_addr > l.block_addr(BlockId::new(0)));
    }

    #[test]
    fn lines_of_block_spans_boundaries() {
        let p = program_with_sizes(&[&[100]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        // 100 bytes starting at a 64B-aligned base covers 2 lines.
        assert_eq!(l.lines_of_block(BlockId::new(0)).count(), 2);
    }

    #[test]
    fn footprint_counts_unique_lines() {
        let p = program_with_sizes(&[&[32, 32], &[64]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        // f0: 64 bytes = 1 line; f1 aligned to next 16B -> starts at +64,
        // also line-aligned here, 64 bytes = 1 line.
        assert_eq!(l.footprint_lines(), 2);
    }

    #[test]
    fn line_bounds_cover_every_block_line() {
        let p = program_with_sizes(&[&[10, 20], &[30, 5], &[100]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let (first, last) = l.line_bounds().unwrap();
        for i in 0..p.num_blocks() {
            for line in l.lines_of_block(BlockId::new(i as u32)) {
                assert!(first <= line && line <= last, "line {line} out of bounds");
            }
        }
        // The bounds are tight: both ends are touched by some block.
        assert_eq!(first, LayoutConfig::default().base_addr.line());
        let max_end = (0..p.num_blocks())
            .map(|i| l.block_end(BlockId::new(i as u32)).get())
            .max()
            .unwrap();
        assert_eq!(last, Addr::new(max_end - 1).line());
    }

    #[test]
    fn addr_of_loc_roundtrip() {
        let p = program_with_sizes(&[&[10, 20, 5]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let loc = CodeLoc::new(BlockId::new(1), 7);
        let addr = l.addr_of(loc);
        assert_eq!(l.loc_of_addr(addr), Some(loc));
    }

    #[test]
    fn loc_of_addr_outside_code() {
        let p = program_with_sizes(&[&[10]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        assert_eq!(l.loc_of_addr(Addr::new(0)), None);
        assert_eq!(l.loc_of_addr(l.end()), None);
    }

    #[test]
    fn non_overlapping_blocks() {
        let p = program_with_sizes(&[&[10, 20], &[30, 5], &[64]]);
        let l = Layout::new(&p, &LayoutConfig::default());
        let mut spans: Vec<(u64, u64)> = (0..p.num_blocks())
            .map(|i| {
                let b = BlockId::new(i as u32);
                (l.block_addr(b).get(), l.block_end(b).get())
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
        }
    }
}
