//! Property tests for the program model, linker and rewriter.

use proptest::prelude::*;
use ripple_program::{
    lines_spanning, rewrite, Addr, BlockId, CodeKind, CodeLoc, Injection, InjectionPlan,
    Instruction, Layout, LayoutConfig, LineAddr, LineMapper, Program, ProgramBuilder,
    CACHE_LINE_BYTES,
};

/// A plan injecting at `picks` (cue, victim) block indices, reduced modulo
/// the program's block count.
fn plan_of(program: &Program, picks: &[(usize, usize)]) -> InjectionPlan {
    let n = program.num_blocks();
    let mut plan = InjectionPlan::new();
    for &(cue_raw, victim_raw) in picks {
        plan.push(Injection {
            cue: BlockId::new((cue_raw % n) as u32),
            victim: CodeLoc::new(BlockId::new((victim_raw % n) as u32), 0),
        });
    }
    plan
}

/// The reference lookup: the block whose bytes contain `addr`, found by
/// scanning every block, with the offset into its original bytes.
fn loc_of_addr_by_scan(layout: &Layout, num_blocks: usize, addr: Addr) -> Option<CodeLoc> {
    (0..num_blocks as u32).map(BlockId::new).find_map(|b| {
        let start = layout.block_addr(b).get();
        let end = layout.block_end(b).get();
        (start..end).contains(&addr.get()).then(|| {
            let prefix = layout.addr_of(CodeLoc::new(b, 0)).get() - start;
            let offset = (addr.get() - start).saturating_sub(prefix);
            CodeLoc::new(b, offset as u32)
        })
    })
}

/// Checks `loc_of_addr` against the scan at every byte of the text segment
/// and one past each end.
fn assert_loc_of_addr_matches_scan(layout: &Layout, num_blocks: usize) {
    let first = layout.block_addr(BlockId::new(0)).get().saturating_sub(1);
    for a in first..=layout.end().get() {
        let addr = Addr::new(a);
        prop_assert_eq!(
            layout.loc_of_addr(addr),
            loc_of_addr_by_scan(layout, num_blocks, addr),
            "address {:#x}",
            a
        );
    }
}

/// The reference for `Layout::line_bounds`: a scan over every block's
/// lines.
fn line_bounds_by_scan(layout: &Layout, num_blocks: usize) -> Option<(LineAddr, LineAddr)> {
    let lines = (0..num_blocks as u32).flat_map(|b| layout.lines_of_block(BlockId::new(b)));
    let first = lines.clone().min()?;
    Some((first, lines.max()?))
}

/// Strategy: a linear program of 1..=12 functions, each with 1..=8 blocks
/// of 1..=10 instructions with random sizes.
fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(
        proptest::collection::vec(proptest::collection::vec(1u8..=15, 1..=10), 1..=8),
        1..=12,
    )
    .prop_map(|functions| {
        let mut b = ProgramBuilder::new();
        let mut entry = None;
        for blocks in &functions {
            let f = b.add_function("f", CodeKind::Static);
            entry.get_or_insert(f);
            let n = blocks.len();
            for (bi, sizes) in blocks.iter().enumerate() {
                let blk = b.add_block(f);
                for &s in sizes {
                    b.push_inst(blk, Instruction::other(s));
                }
                if bi + 1 == n {
                    b.push_inst(blk, Instruction::ret());
                }
            }
        }
        b.finish(entry.unwrap()).expect("linear programs validate")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Layout places blocks without overlap and in ascending address
    /// order within a function.
    #[test]
    fn layout_is_non_overlapping(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let mut spans: Vec<(u64, u64)> = (0..program.num_blocks())
            .map(|i| {
                let b = BlockId::new(i as u32);
                (layout.block_addr(b).get(), layout.block_end(b).get())
            })
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "blocks overlap: {w:?}");
        }
    }

    /// Every function entry is aligned as configured.
    #[test]
    fn layout_respects_function_alignment(program in arb_program()) {
        let cfg = LayoutConfig::default();
        let layout = Layout::new(&program, &cfg);
        for func in program.functions() {
            let entry = layout.block_addr(func.entry());
            prop_assert_eq!(entry.get() % cfg.function_align, 0);
        }
    }

    /// `loc_of_addr` inverts `addr_of` for every instruction boundary.
    #[test]
    fn loc_addr_roundtrip(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        for block in program.blocks() {
            let mut off = 0u32;
            for inst in block.instructions() {
                let loc = CodeLoc::new(block.id(), off);
                let addr = layout.addr_of(loc);
                prop_assert_eq!(layout.loc_of_addr(addr), Some(loc));
                off += u32::from(inst.size_bytes());
            }
        }
    }

    /// `loc_of_addr`'s binary search agrees with a linear scan over every
    /// block, on the original layout and two rewritten ones. (The builder
    /// rejects empty blocks, so no layout has zero-size blocks.)
    #[test]
    fn loc_of_addr_matches_a_linear_scan(
        program in arb_program(),
        first in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        second in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
    ) {
        let n = program.num_blocks();
        let layout = Layout::new(&program, &LayoutConfig::default());
        assert_loc_of_addr_matches_scan(&layout, n);
        let first = plan_of(&program, &first);
        let rewritten = rewrite(&program, &layout, &first);
        assert_loc_of_addr_matches_scan(&rewritten.layout, n);
        let second = plan_of(&program, &second);
        let relinked = rewrite(&program, &layout, &second);
        assert_loc_of_addr_matches_scan(&relinked.layout, n);
    }

    /// The line bounds a layout stores equal a fresh scan of its blocks,
    /// on the original layout and two rewritten ones; the line range
    /// covers exactly those lines.
    #[test]
    fn stored_line_bounds_match_a_block_scan(
        program in arb_program(),
        first in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
        second in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
    ) {
        let n = program.num_blocks();
        let layout = Layout::new(&program, &LayoutConfig::default());
        let first = plan_of(&program, &first);
        let rewritten = rewrite(&program, &layout, &first);
        let second = plan_of(&program, &second);
        let relinked = rewrite(&program, &layout, &second);
        for l in [&layout, &rewritten.layout, &relinked.layout] {
            let bounds = line_bounds_by_scan(l, n);
            prop_assert_eq!(l.line_bounds(), bounds);
            let (lo, hi) = bounds.expect("linear programs have code bytes");
            let range = l.line_range();
            prop_assert_eq!(range.len() as u64, hi.index() - lo.index() + 1);
            prop_assert_eq!(range.slot(lo), Some(0));
            prop_assert_eq!(range.slot(hi.next()), None);
        }
    }

    /// Rewriting with an empty plan gives back the same program and the
    /// same layout, on programs of any shape: the pipeline relies on this
    /// to skip relinking empty plans.
    #[test]
    fn rewrite_of_an_empty_plan_is_the_identity(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let rw = rewrite(&program, &layout, &InjectionPlan::new());
        prop_assert!(rw.program == program);
        prop_assert!(rw.layout == layout);
    }

    /// The static footprint in lines matches the code-byte count within
    /// one line per block boundary (padding can add at most that).
    #[test]
    fn footprint_bounds(program in arb_program()) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let lines = layout.footprint_lines();
        let min_lines = layout.code_bytes().div_ceil(CACHE_LINE_BYTES);
        let max_lines = min_lines + program.num_blocks() as u64 + program.num_functions() as u64;
        prop_assert!(lines >= min_lines, "{lines} < {min_lines}");
        prop_assert!(lines <= max_lines, "{lines} > {max_lines}");
    }

    /// Rewriting with an arbitrary plan preserves the original instruction
    /// stream, keeps the program valid, lays the result out as a fresh
    /// `Layout::new` would (also when rewriting a rewritten program), and
    /// the line mapper tracks every victim line to the line holding the
    /// same first code byte.
    #[test]
    fn rewrite_preserves_code(
        program in arb_program(),
        picks in proptest::collection::vec((0usize..64, 0usize..64), 0..6),
    ) {
        let layout = Layout::new(&program, &LayoutConfig::default());
        let plan = plan_of(&program, &picks);
        let rw = rewrite(&program, &layout, &plan);
        prop_assert!(rw.layout == Layout::new(&rw.program, layout.config()));
        let rest = plan_of(&program, picks.get(1..).unwrap_or_default());
        let again = rewrite(&rw.program, &rw.layout, &rest);
        prop_assert!(again.layout == Layout::new(&again.program, layout.config()));
        prop_assert!(rw.program.validate().is_ok());
        prop_assert_eq!(rw.program.injected_instruction_count(), plan.len() as u64);
        for (old, new) in program.blocks().iter().zip(rw.program.blocks()) {
            prop_assert_eq!(old.instructions(), new.original_instructions());
        }
        // Mapper: a line's identity follows its *first code byte* (which
        // may belong to an earlier block than the victim byte).
        let mapper = LineMapper::new(&program, &layout, &rw.layout);
        let origins = ripple_program::line_origins(&program, &layout);
        for inj in plan.injections() {
            let old_line = layout.line_of(inj.victim);
            let origin = origins.get(old_line).expect("a victim line holds code");
            prop_assert_eq!(mapper.map(old_line), rw.layout.line_of(origin));
        }
    }

    /// `lines_spanning` covers exactly the bytes of the range.
    #[test]
    fn lines_spanning_exact(start in 0u64..10_000, len in 0u64..1_000) {
        let lines: Vec<_> = lines_spanning(Addr::new(start), len).collect();
        if len == 0 {
            prop_assert!(lines.is_empty());
        } else {
            prop_assert_eq!(lines.first().copied(), Some(Addr::new(start).line()));
            prop_assert_eq!(
                lines.last().copied(),
                Some(Addr::new(start + len - 1).line())
            );
            // Consecutive and gap-free.
            for w in lines.windows(2) {
                prop_assert_eq!(w[0].next(), w[1]);
            }
        }
    }
}
